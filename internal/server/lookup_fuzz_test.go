package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzCacheLookup asserts the crash-safety contract of POST
// /v1/cache/lookup, the peer endpoint that accepts bytes from other
// processes: arbitrary bodies answer only 200 (hit), 400 (malformed),
// 404 (miss), 409 (epoch mismatch) or 413 (too large), never a panic or
// a 500. Whenever the embedded request normalizes, it must also
// round-trip: re-encoding the normalized request and normalizing it
// again gives the same fingerprint, so the key a peer files a result
// under does not depend on how the request was spelled on the wire.
func FuzzCacheLookup(f *testing.F) {
	s := New(Config{Workers: 1, Epoch: "e1", MaxRequestBytes: 4 << 10})
	f.Cleanup(s.Close)
	h := s.Handler()

	// Cache one result so the seeds reach the hit path too.
	ins := InsertRequest{Tree: smallTreeText(f), Algo: "nom"}
	insJSON, _ := json.Marshal(ins)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/insert", bytes.NewReader(insJSON)))
	if rec.Code != http.StatusOK {
		f.Fatalf("seed insert: status %d: %s", rec.Code, rec.Body)
	}
	seed := func(look CacheLookupRequest) {
		raw, _ := json.Marshal(look)
		f.Add(raw)
	}
	seed(CacheLookupRequest{Kind: "insert", Epoch: "e1", Request: insJSON})
	seed(CacheLookupRequest{Kind: "yield", Epoch: "e1", Request: insJSON})
	seed(CacheLookupRequest{Kind: "insert", Epoch: "e0", Request: insJSON})
	seed(CacheLookupRequest{Kind: "mystery", Epoch: "e1", Request: insJSON})
	seed(CacheLookupRequest{Kind: "yield", Epoch: "e1",
		Request: json.RawMessage(`{"bench":"r1","rule":"4P","monte_carlo":100,"mc_tol":0.5,"parallelism":4}`)})
	f.Add([]byte(`{"kind":"insert","epoch":"e1","request":{"tree":"x","pbar":-0}}`))
	f.Add([]byte(`{"kind":"insert","epoch":"e1","request":null}`))
	f.Add([]byte(`{"kind":"insert"} trailing`))
	f.Add([]byte(`{"kind":"insert","extra":1}`))
	f.Add([]byte(`{"kind":"insert","epoch":"e1","request":"` + strings.Repeat("a", 5<<10) + `"}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cache/lookup", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("lookup answered %d: %s", rec.Code, rec.Body)
		}

		var look CacheLookupRequest
		if json.Unmarshal(body, &look) != nil {
			return
		}
		switch look.Kind {
		case "insert":
			checkRefingerprint(t, look.Request, new(InsertRequest), new(InsertRequest))
		case "yield":
			checkRefingerprint(t, look.Request, new(YieldRequest), new(YieldRequest))
		}
	})
}

// fingerprinted is a request DTO the lookup fingerprints.
type fingerprinted interface {
	Normalize() error
	Fingerprint(epoch string) string
}

// checkRefingerprint decodes raw into first as the lookup does and, when
// that normalizes, requires its re-encoding to decode into second,
// normalize again and fingerprint the same.
func checkRefingerprint(t *testing.T, raw json.RawMessage, first, second fingerprinted) {
	if json.Unmarshal(raw, first) != nil || first.Normalize() != nil {
		return
	}
	again, err := json.Marshal(first)
	if err != nil {
		t.Fatalf("re-encoding a normalized request: %v", err)
	}
	if err := json.Unmarshal(again, second); err != nil {
		t.Fatalf("re-encoded request %s does not decode: %v", again, err)
	}
	if err := second.Normalize(); err != nil {
		t.Fatalf("re-encoded request %s does not normalize: %v", again, err)
	}
	if a, b := first.Fingerprint("e1"), second.Fingerprint("e1"); a != b {
		t.Fatalf("fingerprint changed across re-encoding: %s -> %s (%s)", a, b, again)
	}
}
