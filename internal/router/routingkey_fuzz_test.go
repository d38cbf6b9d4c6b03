package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vabuf/internal/server"
)

// keyEchoBackends stands in for a vabufd fleet in process: /readyz is
// always green, and a sub-batch is parsed with the backend's own batch
// parser and answered item by item, each accepted item with the
// empty-epoch fingerprint the backend files it under and the backend
// that received it.
type keyEchoBackends struct{}

type keyEcho struct {
	Key string `json:"key"`
	At  string `json:"at"`
}

func (keyEchoBackends) RoundTrip(req *http.Request) (*http.Response, error) {
	reply := func(status int, body any) (*http.Response, error) {
		raw, _ := json.Marshal(body)
		return &http.Response{StatusCode: status, Header: http.Header{},
			Body: io.NopCloser(bytes.NewReader(raw)), Request: req}, nil
	}
	if req.URL.Path == "/readyz" {
		return reply(http.StatusOK, map[string]string{"status": "ready"})
	}
	kind := strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/v1/"), ":batch")
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	items, defaults, err := server.ParseBatch(kind, body)
	if err != nil {
		return reply(http.StatusBadRequest, server.ErrorResult{Error: err.Error()})
	}
	out := server.BatchResult[json.RawMessage]{Items: make([]server.BatchItem[json.RawMessage], len(items))}
	for i, raw := range items {
		out.Items[i].Index = i
		r, err := server.ParseRequest(kind, defaults, raw)
		if err != nil {
			out.Items[i].Status, out.Items[i].Error = http.StatusBadRequest, err.Error()
			continue
		}
		echo, _ := json.Marshal(keyEcho{Key: r.Fingerprint(""), At: "http://" + req.URL.Host})
		out.Items[i].Status, out.Items[i].Result = http.StatusOK, echo
	}
	out.Tally()
	return reply(http.StatusOK, out)
}

// FuzzRoutingKey pins the agreement routing and caching rest on. For any
// batch built from (kind, defaults, item) bytes, with the backend's batch
// path (server.ParseBatch, then server.ParseRequest per item) as the
// reference:
//
//  1. vabufr's batch split accepts an item exactly when the backend
//     does, and fails the whole batch exactly when the backend does;
//  2. the key vabufr routes an item by equals the backend's
//     Fingerprint("") of the forwarded payload, and the item reaches that
//     key's ring owner;
//  3. preparing the forwarded payload again with no defaults gives the
//     same key and a byte-identical payload.
func FuzzRoutingKey(f *testing.F) {
	backends := []string{"http://b0", "http://b1", "http://b2"}
	rt, err := New(Config{
		Backends:      backends,
		ProbeInterval: time.Hour,
		RecoverAfter:  1,
		Client:        &http.Client{Transport: keyEchoBackends{}},
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rt.Close)
	deadline := time.Now().Add(5 * time.Second)
	for _, b := range backends {
		for !rt.state.usable(b) {
			if time.Now().After(deadline) {
				f.Fatalf("backend %s never probed healthy", b)
			}
			time.Sleep(time.Millisecond)
		}
	}
	h := rt.Handler()

	f.Add(false, []byte(`{"algo":"nom"}`), []byte(`{"bench":"p1"}`))
	f.Add(false, []byte(nil), []byte(`{"bench":"p1","bogus":1}`))
	f.Add(false, []byte(`{"algo":"nom","bogus":1}`), []byte(`{"bench":"p1"}`))
	f.Add(false, []byte(`["nom"]`), []byte(`{"bench":"p1"}`))
	f.Add(false, []byte(`null`), []byte(`null`))
	f.Add(false, []byte(nil), []byte(`{"tree":"<&> \ud800","algo":"d2d","rule":"4P","pbar":-0}`))
	f.Add(false, []byte(`{"bench":"r2","wire_sizing":true}`), []byte(`{"tree":"x","heterogeneous":false},{"bench":"r1"}`))
	f.Add(true, []byte(`{"monte_carlo":64,"mc_tol":-0}`), []byte(`{"bench":"r1","algo":"wid"}`))
	f.Add(true, []byte(nil), []byte(`{"bench":"p1","monte_carlo":5,"seed":-3,"parallelism":4,"quantile":1e-300}`))
	f.Add(true, []byte(`{"seed":7}`), []byte(`{"bench":"p1","monte_carlo":-1}`))

	f.Fuzz(func(t *testing.T, yield bool, defaults, item []byte) {
		kind := "insert"
		if yield {
			kind = "yield"
		}
		body := `{"items":[` + string(item) + `]}`
		if len(defaults) > 0 {
			body = `{"defaults":` + string(defaults) + `,"items":[` + string(item) + `]}`
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+kind+":batch", strings.NewReader(body)))

		refItems, refDefaults, refErr := server.ParseBatch(kind, []byte(body))
		if refErr != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("backend refuses the batch (%v), router answered %d: %s", refErr, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("backend accepts the batch, router answered %d: %s", rec.Code, rec.Body)
		}
		var got server.BatchResult[json.RawMessage]
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || len(got.Items) != len(refItems) {
			t.Fatalf("router answered %d items for %d (%v): %s", len(got.Items), len(refItems), err, rec.Body)
		}
		ring := rt.mem.Load().ring
		for i, raw := range refItems {
			res := got.Items[i]
			want, err := server.ParseRequest(kind, refDefaults, raw)
			if err != nil {
				if res.Status != http.StatusBadRequest {
					t.Fatalf("item %d: backend rejects it (%v), router answered %d", i, err, res.Status)
				}
				continue
			}
			if res.Status != http.StatusOK {
				t.Fatalf("item %d: backend accepts it, router answered %d: %s", i, res.Status, res.Error)
			}
			key, payload, err := prepareItem(kind, refDefaults, raw)
			if err != nil {
				t.Fatalf("item %d: split rejects an item the backend accepts: %v", i, err)
			}
			var echo keyEcho
			if err := json.Unmarshal(res.Result, &echo); err != nil {
				t.Fatalf("item %d: %v: %s", i, err, res.Result)
			}
			if key != echo.Key || key != want.Fingerprint("") {
				t.Fatalf("item %d: router key %s, backend keys the forwarded payload %s and the item %s",
					i, key, echo.Key, want.Fingerprint(""))
			}
			if owner := ring.owner(key); echo.At != owner {
				t.Fatalf("item %d: key %s owned by %s, forwarded to %s", i, key, owner, echo.At)
			}
			key2, payload2, err := prepareItem(kind, nil, payload)
			if err != nil {
				t.Fatalf("item %d: forwarded payload %s no longer parses: %v", i, payload, err)
			}
			if key2 != key || !bytes.Equal(payload2, payload) {
				t.Fatalf("item %d: re-preparing changes the key or payload:\n%s %s\n%s %s",
					i, key, payload, key2, payload2)
			}
		}
	})
}
