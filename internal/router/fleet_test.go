package router

// Fleet integration tests: real internal/server instances behind
// httptest listeners, fronted by a real Router. Backends can be
// "killed" without losing their address — the wrapper hijacks and
// closes the connection, which the router sees as a transport error,
// exactly like a dead process behind a still-routable address.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vabuf"
	"vabuf/internal/server"
)

// fleetBackend is one vabufd-equivalent test instance with a kill switch.
type fleetBackend struct {
	name string
	srv  *server.Server
	ts   *httptest.Server
	down atomic.Bool
}

func (b *fleetBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if b.down.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close() // looks like a dead process, not a clean 5xx
				return
			}
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
		return
	}
	b.srv.Handler().ServeHTTP(w, r)
}

// newFleet starts n backends named b0..b{n-1}, all with the given epoch.
func newFleet(t *testing.T, n int, epoch string) []*fleetBackend {
	return newFleetConfig(t, n, server.Config{Epoch: epoch})
}

// newFleetConfig starts n backends named b0..b{n-1} on cfg, each with
// two workers.
func newFleetConfig(t *testing.T, n int, cfg server.Config) []*fleetBackend {
	t.Helper()
	fleet := make([]*fleetBackend, n)
	for i := range fleet {
		b := &fleetBackend{name: fmt.Sprintf("b%d", i)}
		c := cfg
		c.Workers, c.Instance = 2, b.name
		b.srv = server.New(c)
		b.ts = httptest.NewServer(b)
		t.Cleanup(func() {
			b.ts.Close()
			b.srv.Close()
		})
		fleet[i] = b
	}
	return fleet
}

func fleetURLs(fleet []*fleetBackend) []string {
	urls := make([]string, len(fleet))
	for i, b := range fleet {
		urls[i] = b.ts.URL
	}
	return urls
}

// newTestRouter fronts the fleet with fast probes (single-probe
// hysteresis, 25ms interval) so tests converge quickly.
func newTestRouter(t *testing.T, fleet []*fleetBackend) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(Config{
		Backends:      fleetURLs(fleet),
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailAfter:     1,
		RecoverAfter:  1,
		Logf:          func(string, ...any) {}, // prober logs race test teardown
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	waitFor(t, "router ready", func() bool {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return rt, ts
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func treeText(t *testing.T, seed int64) string {
	t.Helper()
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{
		Name: fmt.Sprintf("t%d", seed), Sinks: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vabuf.WriteTree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		t.Fatalf("unmarshal %s: %v\n%s", url, err, raw)
	}
}

// resultCacheStat reads one field of a backend's result-cache metrics.
func resultCacheStat(t *testing.T, b *fleetBackend, field string) float64 {
	t.Helper()
	var met map[string]any
	getJSON(t, b.ts.URL+"/metrics", &met)
	result, ok := met["caches"].(map[string]any)["result"].(map[string]any)
	if !ok {
		return 0
	}
	v, _ := result[field].(float64)
	return v
}

// ownerOf computes the ring owner of a request the way the router does
// (normalize, fingerprint with the empty epoch) and returns its fleet
// index.
func ownerOf(t *testing.T, rt *Router, fleet []*fleetBackend, req server.InsertRequest) int {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	url := rt.mem.Load().ring.owner(req.Fingerprint(""))
	for i, b := range fleet {
		if b.ts.URL == url {
			return i
		}
	}
	t.Fatalf("ring owner %s is not a fleet member", url)
	return -1
}

// TestRouterRepeatHitsSameOwner: repeats of one request land on one
// backend (the ring owner), whose result cache answers the second call —
// the fleet behaves like one big cache.
func TestRouterRepeatHitsSameOwner(t *testing.T) {
	fleet := newFleet(t, 3, "")
	rt, ts := newTestRouter(t, fleet)
	// The router is ready once any backend is; the owner must be too, or
	// the first insert fails over to its successor.
	waitFor(t, "all backends healthy", func() bool {
		for _, u := range fleetURLs(fleet) {
			if !rt.state.healthy(u) {
				return false
			}
		}
		return true
	})
	req := server.InsertRequest{Tree: treeText(t, 1), Algo: "wid"}

	resp1, raw1 := postJSON(t, ts.URL+"/v1/insert", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first insert: status %d: %s", resp1.StatusCode, raw1)
	}
	inst1 := resp1.Header.Get("Vabuf-Instance")
	if inst1 == "" {
		t.Fatal("response missing Vabuf-Instance header")
	}
	owner := ownerOf(t, rt, fleet, req)
	if want := fleet[owner].name; inst1 != want {
		t.Errorf("request served by %s, ring owner is %s", inst1, want)
	}

	resp2, raw2 := postJSON(t, ts.URL+"/v1/insert", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second insert: status %d: %s", resp2.StatusCode, raw2)
	}
	if inst2 := resp2.Header.Get("Vabuf-Instance"); inst2 != inst1 {
		t.Errorf("repeat served by %s, first by %s — routing is not sticky", inst2, inst1)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Error("repeat answered different bytes than the original")
	}
	if hits := resultCacheStat(t, fleet[owner], "hits"); hits < 1 {
		t.Errorf("owner result cache hits = %g after a repeat, want >= 1", hits)
	}
	// The other backends never saw the request.
	for i, b := range fleet {
		if i == owner {
			continue
		}
		if size := resultCacheStat(t, b, "size"); size != 0 {
			t.Errorf("non-owner %s cached %g results", b.name, size)
		}
	}
}

// TestBatchScatterGatherParity: a mixed batch through the router answers
// item-for-item (order, statuses, partial failure) what a single backend
// answers.
func TestBatchScatterGatherParity(t *testing.T) {
	fleet := newFleet(t, 3, "")
	_, ts := newTestRouter(t, fleet)
	_, ref := newSingleBackend(t)

	batch := server.BatchRequest[server.InsertRequest]{Items: []server.InsertRequest{
		{Tree: treeText(t, 10), Algo: "nom"},
		{Tree: treeText(t, 11), Algo: "bogus"}, // per-item 400
		{Tree: treeText(t, 12), Algo: "wid"},
		{Tree: treeText(t, 13), Algo: "d2d"},
	}}
	respR, rawR := postJSON(t, ts.URL+"/v1/insert:batch", batch)
	respS, rawS := postJSON(t, ref+"/v1/insert:batch", batch)
	if respR.StatusCode != http.StatusOK || respS.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status router=%d single=%d, want 200/200:\n%s\n%s",
			respR.StatusCode, respS.StatusCode, rawR, rawS)
	}
	var outR, outS server.BatchResult[*server.InsertResult]
	if err := json.Unmarshal(rawR, &outR); err != nil {
		t.Fatalf("router batch response: %v\n%s", err, rawR)
	}
	if err := json.Unmarshal(rawS, &outS); err != nil {
		t.Fatal(err)
	}
	if outR.Succeeded != outS.Succeeded || outR.Errors != outS.Errors {
		t.Errorf("aggregate counts diverge: router %d/%d, single %d/%d",
			outR.Succeeded, outR.Errors, outS.Succeeded, outS.Errors)
	}
	if len(outR.Items) != len(batch.Items) {
		t.Fatalf("router returned %d items for %d sent", len(outR.Items), len(batch.Items))
	}
	for i := range outR.Items {
		r, s := outR.Items[i], outS.Items[i]
		if r.Index != i {
			t.Errorf("item %d came back with index %d — order not preserved", i, r.Index)
		}
		if r.Status != s.Status {
			t.Errorf("item %d status: router %d, single %d", i, r.Status, s.Status)
		}
		if (r.Result == nil) != (s.Result == nil) {
			t.Errorf("item %d result presence diverges", i)
		}
		if r.Result != nil && s.Result != nil && r.Result.NumBuffers != s.Result.NumBuffers {
			t.Errorf("item %d: router %d buffers, single %d", i, r.Result.NumBuffers, s.Result.NumBuffers)
		}
	}

	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	if fan := met["scatter_fanout"].(map[string]any); len(fan) == 0 {
		t.Error("scatter_fanout histogram empty after a batch")
	}

	// Raw bodies a typed client cannot send. An item with an unknown
	// field is a per-item 400 while its siblings are served; a defaults
	// block that does not decode fails the whole batch.
	tree, _ := json.Marshal(treeText(t, 10))
	for _, tc := range []struct {
		name, body string
		status     int
		items      []int
	}{
		{"unknown item field",
			`{"items":[{"tree":` + string(tree) + `,"algo":"nom"},{"tree":` + string(tree) + `,"algo":"nom","bogus":1}]}`,
			http.StatusOK, []int{http.StatusOK, http.StatusBadRequest}},
		{"unknown defaults field",
			`{"defaults":{"algo":"nom","bogus":1},"items":[{"tree":` + string(tree) + `}]}`,
			http.StatusBadRequest, nil},
		{"defaults of the wrong type",
			`{"defaults":["nom"],"items":[{"tree":` + string(tree) + `}]}`,
			http.StatusBadRequest, nil},
	} {
		for _, url := range []string{ts.URL, ref} {
			resp, raw := postJSON(t, url+"/v1/insert:batch", json.RawMessage(tc.body))
			if resp.StatusCode != tc.status {
				t.Errorf("%s via %s: status %d, want %d: %s", tc.name, url, resp.StatusCode, tc.status, raw)
				continue
			}
			if tc.items == nil {
				continue
			}
			var out server.BatchResult[*server.InsertResult]
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("%s via %s: %v\n%s", tc.name, url, err, raw)
			}
			for i, want := range tc.items {
				if i >= len(out.Items) || out.Items[i].Status != want {
					t.Errorf("%s via %s: item %d: %s, want status %d", tc.name, url, i, raw, want)
				}
			}
		}
	}
}

// newSingleBackend is the parity reference: one plain server instance.
func newSingleBackend(t *testing.T) (*server.Server, string) {
	t.Helper()
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

// TestFailoverOnBackendKill: killing the owner mid-fleet reroutes its
// requests to the ring successor; the router counts the failover and
// recovery restores ownership.
func TestFailoverOnBackendKill(t *testing.T) {
	fleet := newFleet(t, 2, "")
	rt, ts := newTestRouter(t, fleet)
	req := server.InsertRequest{Tree: treeText(t, 2), Algo: "nom"}
	owner := ownerOf(t, rt, fleet, req)

	fleet[owner].down.Store(true)
	waitFor(t, "prober to mark owner down", func() bool { return !rt.state.healthy(fleet[owner].ts.URL) })

	resp, raw := postJSON(t, ts.URL+"/v1/insert", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover insert: status %d: %s", resp.StatusCode, raw)
	}
	if inst := resp.Header.Get("Vabuf-Instance"); inst != fleet[1-owner].name {
		t.Errorf("failover served by %q, want successor %q", inst, fleet[1-owner].name)
	}
	if n := rt.met.failovers.Get(fleet[owner].ts.URL); n < 1 {
		t.Errorf("owner failover count = %d, want >= 1", n)
	}

	// Recovery: ownership returns to the ring owner.
	fleet[owner].down.Store(false)
	waitFor(t, "prober to mark owner healthy", func() bool { return rt.state.healthy(fleet[owner].ts.URL) })
	resp2, raw2 := postJSON(t, ts.URL+"/v1/insert", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery insert: status %d: %s", resp2.StatusCode, raw2)
	}
	if inst := resp2.Header.Get("Vabuf-Instance"); inst != fleet[owner].name {
		t.Errorf("post-recovery request served by %q, want owner %q", inst, fleet[owner].name)
	}
}

// TestRouterAllDown: with every backend dead the router answers 503
// (retryable) and its /readyz flips to 503.
func TestRouterAllDown(t *testing.T) {
	fleet := newFleet(t, 2, "")
	rt, ts := newTestRouter(t, fleet)
	for _, b := range fleet {
		b.down.Store(true)
	}
	waitFor(t, "all backends down", func() bool { return !rt.state.anyHealthy() })

	resp, _ := postJSON(t, ts.URL+"/v1/insert",
		server.InsertRequest{Tree: treeText(t, 3), Algo: "nom"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("all-down insert status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("all-down 503 missing Retry-After")
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d with no healthy backends, want 503", rz.StatusCode)
	}
}

// TestYieldThroughRouter exercises the second proxied kind end to end.
func TestYieldThroughRouter(t *testing.T) {
	fleet := newFleet(t, 2, "")
	_, ts := newTestRouter(t, fleet)
	req := server.YieldRequest{
		InsertRequest: server.InsertRequest{Tree: treeText(t, 5), Algo: "wid"},
		MonteCarlo:    256,
		Seed:          7,
	}
	resp, raw := postJSON(t, ts.URL+"/v1/yield", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("yield: status %d: %s", resp.StatusCode, raw)
	}
	var res server.YieldResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.MonteCarlo == nil || res.MonteCarlo.Samples == 0 {
		t.Error("yield result missing Monte-Carlo section")
	}
}

// TestRouterRejectsBadRequestLocally: validation parity — a request the
// backends would 400 never leaves the router.
func TestRouterRejectsBadRequestLocally(t *testing.T) {
	fleet := newFleet(t, 2, "")
	rt, ts := newTestRouter(t, fleet)
	resp, raw := postJSON(t, ts.URL+"/v1/insert",
		map[string]any{"algo": "nom"}) // neither bench nor tree
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", resp.StatusCode, raw)
	}
	var e server.ErrorResult
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Errorf("400 body is not an ErrorResult: %s", raw)
	}
	// No backend was bothered.
	for _, b := range fleet {
		if n := rt.met.proxied.Get(b.ts.URL); n != 0 {
			t.Errorf("backend %s proxied %d requests for a locally-rejected body", b.name, n)
		}
	}
}
