package server

// Tests for POST /v1/cache/lookup, the synchronous peer-cache read the
// router uses to rescue a moved key's result from its previous owner.

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestCacheLookupServesCachedResult: a lookup for a computed request
// answers the cached body verbatim; an unknown request answers 404.
func TestCacheLookupServesCachedResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Epoch: "v1", Instance: "i1"})
	req := InsertRequest{Tree: smallTreeText(t), Algo: "nom"}
	resp, raw := postJSON(t, ts.URL+"/v1/insert", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed insert: status %d: %s", resp.StatusCode, raw)
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	look := CacheLookupRequest{Kind: "insert", Epoch: "v1", Request: reqJSON}
	lresp, lraw := postJSON(t, ts.URL+"/v1/cache/lookup", look)
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("lookup of a cached result: status %d: %s", lresp.StatusCode, lraw)
	}
	if string(lraw) != string(raw) {
		t.Error("lookup body differs from the original insert response")
	}
	if inst := lresp.Header.Get("Vabuf-Instance"); inst == "" {
		t.Error("lookup response missing Vabuf-Instance header")
	}

	// A request this instance never computed: 404, nothing else.
	other := InsertRequest{Tree: smallTreeText(t), Algo: "wid"}
	otherJSON, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	miss := CacheLookupRequest{Kind: "insert", Epoch: "v1", Request: otherJSON}
	if mresp, mraw := postJSON(t, ts.URL+"/v1/cache/lookup", miss); mresp.StatusCode != http.StatusNotFound {
		t.Fatalf("lookup miss: status %d, want 404: %s", mresp.StatusCode, mraw)
	}

	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	pl := met["peer_lookups"].(map[string]any)
	if h := pl["hits"].(float64); h != 1 {
		t.Errorf("peer_lookups.hits = %g, want 1", h)
	}
	if m := pl["misses"].(float64); m != 1 {
		t.Errorf("peer_lookups.misses = %g, want 1", m)
	}
}

// TestCacheLookupEpochGuard: a lookup carrying another epoch is refused
// with 409, and an unknown kind with 400.
func TestCacheLookupEpochGuard(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Epoch: "v2"})
	req := InsertRequest{Tree: smallTreeText(t), Algo: "nom"}
	if resp, raw := postJSON(t, ts.URL+"/v1/insert", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed insert: status %d: %s", resp.StatusCode, raw)
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	stale := CacheLookupRequest{Kind: "insert", Epoch: "v1", Request: reqJSON}
	if resp, raw := postJSON(t, ts.URL+"/v1/cache/lookup", stale); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch lookup: status %d, want 409: %s", resp.StatusCode, raw)
	}
	bad := CacheLookupRequest{Kind: "mystery", Epoch: "v2", Request: reqJSON}
	if resp, raw := postJSON(t, ts.URL+"/v1/cache/lookup", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-kind lookup: status %d, want 400: %s", resp.StatusCode, raw)
	}
}

// TestCacheLookupAllowedWhileDraining: the read-only lookup keeps
// answering during drain — that is what lets a router rescue a draining
// instance's cache before it goes away.
func TestCacheLookupAllowedWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := InsertRequest{Tree: smallTreeText(t), Algo: "nom"}
	resp, raw := postJSON(t, ts.URL+"/v1/insert", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed insert: status %d: %s", resp.StatusCode, raw)
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	s.StartDrain()
	look := CacheLookupRequest{Kind: "insert", Request: reqJSON}
	lresp, lraw := postJSON(t, ts.URL+"/v1/cache/lookup", look)
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("draining lookup: status %d, want 200: %s", lresp.StatusCode, lraw)
	}
	if string(lraw) != string(raw) {
		t.Error("draining lookup body differs from the original response")
	}
}

// TestCacheLookupRejectsWhatEndpointsReject: the lookup decodes its
// embedded request as strictly as /v1/insert does, so a body the
// endpoint answers 400 can never be served from the cache.
func TestCacheLookupRejectsWhatEndpointsReject(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	warm := InsertRequest{Bench: "p1", Algo: "nom"}
	if resp, raw := postJSON(t, ts.URL+"/v1/insert", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm insert: status %d: %s", resp.StatusCode, raw)
	}
	body := json.RawMessage(`{"bench":"p1","algo":"nom","bogus":1}`)
	if resp, raw := postJSON(t, ts.URL+"/v1/insert", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("insert with an unknown field: status %d, want 400: %s", resp.StatusCode, raw)
	}
	look := CacheLookupRequest{Kind: "insert", Request: body}
	if resp, raw := postJSON(t, ts.URL+"/v1/cache/lookup", look); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("lookup with an unknown field: status %d, want 400: %s", resp.StatusCode, raw)
	}
}
