package router

// Churn tests: ring membership changes at runtime, synchronous peer
// lookup, and the regression tests for the cold-start and gather-error
// bugs.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vabuf/internal/server"
)

// newTestRouterCfg is newTestRouter with a config hook, for tests that
// need slower probes or different queue behavior.
func newTestRouterCfg(t *testing.T, fleet []*fleetBackend, mut func(*Config)) (*Router, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Backends:      fleetURLs(fleet),
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailAfter:     1,
		RecoverAfter:  1,
		Logf:          func(string, ...any) {},
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

// routerLookups reads the router's /metrics lookups section.
func routerLookups(t *testing.T, ts *httptest.Server, field string) float64 {
	t.Helper()
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	lk, ok := met["lookups"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics has no lookups section")
	}
	v, _ := lk[field].(float64)
	return v
}

// backendStat reads one float field from a nested backend /metrics
// path. Transport errors (e.g. a pooled connection that died while the
// backend was "killed") answer -1 so waitFor conditions just retry.
func backendStat(t *testing.T, b *fleetBackend, section, field string) float64 {
	t.Helper()
	resp, err := http.Get(b.ts.URL + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var met map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		return -1
	}
	sec, ok := met[section].(map[string]any)
	if !ok {
		return 0
	}
	v, _ := sec[field].(float64)
	return v
}

// TestResizeServesMovedKeyFromOldOwner is the churn acceptance test:
// grow a 2-backend ring to 3 under concurrent load — every request
// answers 200 throughout — and a key whose owner changed is served from
// the old owner's cache via the synchronous peer lookup for as long as
// the lookup window is open, without the new owner computing it. Once
// the window closes, the new owner computes the key exactly once, to
// the same answer.
func TestResizeServesMovedKeyFromOldOwner(t *testing.T) {
	fleet := newFleet(t, 3, "")
	rt, ts := newTestRouterCfg(t, fleet[:2], func(c *Config) {
		// Every lookup spends a token of the old owner; the budget is
		// not under test here.
		c.RetryBurst = 100
	})
	waitFor(t, "router ready", func() bool { return rt.state.anyHealthy() })

	// Warm a spread of keys through the 2-backend ring and remember
	// each one's answer. The first half is re-requested while the ring
	// is rebuilt; the moved key under test comes from the second half,
	// which no request touches between the rebuild and the asserted
	// lookup rescue (a re-request could get it computed at the
	// new owner first). With a third of the keys moving, the chance that
	// none of the second half moves is (2/3)^20, about 3e-4.
	const nKeys = 40
	const half = nKeys / 2
	reqs := make([]server.InsertRequest, nKeys)
	warm := make([][]byte, nKeys)
	oldOwner := make([]int, nKeys)
	for i := range reqs {
		reqs[i] = server.InsertRequest{Tree: treeText(t, int64(100+i)), Algo: "nom"}
		oldOwner[i] = ownerOf(t, rt, fleet, reqs[i])
		resp, raw := postJSON(t, ts.URL+"/v1/insert", reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm insert %d: status %d: %s", i, resp.StatusCode, raw)
		}
		warm[i] = raw
	}

	// Rebuild the ring to 3 backends while the first half of the warm
	// keys is re-requested concurrently, each once: no request may fail
	// across the swap. (Every rescued re-request spends a retry token of
	// the key's old owner, so repeats could leave the asserted lookup
	// below without one.)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < half/4; n++ {
				i := w*(half/4) + n
				resp, raw := postJSON(t, ts.URL+"/v1/insert", reqs[i])
				if resp.StatusCode != http.StatusOK {
					errs <- string(raw)
				}
			}
		}(w)
	}
	if err := rt.Reload(fleetURLs(fleet)); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("request failed during resize: %s", e)
	}
	if n := rt.met.ringRebuilds.Load(); n != 2 {
		t.Errorf("ring_rebuilds = %d after one reload, want 2 (boot + reload)", n)
	}
	waitFor(t, "new backend healthy", func() bool { return rt.state.healthy(fleet[2].ts.URL) })

	// Find an untouched key the rebuild moved to the new backend.
	moved := -1
	for i := half; i < nKeys; i++ {
		if ownerOf(t, rt, fleet, reqs[i]) == 2 {
			moved = i
			break
		}
	}
	if moved < 0 {
		t.Fatalf("no key of %d moved to the new backend — ring did not rebalance", half)
	}

	// The swap may have sent a first-half key to the new owner cold (a
	// lookup that timed out under load); only runs from here on count.
	runsBefore := backendStat(t, fleet[2], "pruning", "runs")
	// The moved key and a repeat of it inside the lookup window are both
	// served by the *old* owner's cache, byte-identical, via lookup.
	for n := 0; n < 2; n++ {
		hitsBefore := rt.met.lookupHits.Total()
		resp, raw := postJSON(t, ts.URL+"/v1/insert", reqs[moved])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("moved-key insert %d: status %d: %s", n, resp.StatusCode, raw)
		}
		if inst := resp.Header.Get("Vabuf-Instance"); inst != fleet[oldOwner[moved]].name {
			t.Errorf("moved key (request %d) served by %q, want previous owner %q (lookup rescue)",
				n, inst, fleet[oldOwner[moved]].name)
		}
		if string(raw) != string(warm[moved]) {
			t.Errorf("lookup-served answer %d differs from the original computation", n)
		}
		if hits := rt.met.lookupHits.Total(); hits != hitsBefore+1 {
			t.Errorf("lookup hits = %d after request %d, want %d", hits, n, hitsBefore+1)
		}
	}
	if h := routerLookups(t, ts, "hits"); h < 2 {
		t.Errorf("/metrics lookups.hits = %g, want >= 2", h)
	}
	if h := backendStat(t, fleet[oldOwner[moved]], "peer_lookups", "hits"); h < 2 {
		t.Errorf("old owner peer_lookups.hits = %g, want >= 2", h)
	}
	if runs := backendStat(t, fleet[2], "pruning", "runs"); runs != runsBefore {
		t.Errorf("new owner ran %g computations inside the lookup window, want 0",
			runs-runsBefore)
	}

	// Once the window closes the moved key routes to the new owner,
	// which computes it exactly once, to the warm answer (only
	// elapsed_ms and the cache flags may differ).
	rt.expirePrev()
	resp, raw := postJSON(t, ts.URL+"/v1/insert", reqs[moved])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-window insert: status %d: %s", resp.StatusCode, raw)
	}
	if inst := resp.Header.Get("Vabuf-Instance"); inst != fleet[2].name {
		t.Errorf("post-window insert served by %q, want new owner %q", inst, fleet[2].name)
	}
	if runs := backendStat(t, fleet[2], "pruning", "runs"); runs != runsBefore+1 {
		t.Errorf("new owner ran %g computations for the moved key after the window, want 1",
			runs-runsBefore)
	}
	var got, want server.InsertResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warm[moved], &want); err != nil {
		t.Fatal(err)
	}
	if got.ObjectivePS != want.ObjectivePS {
		t.Errorf("new owner objective = %v, want the warm answer's %v", got.ObjectivePS, want.ObjectivePS)
	}
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Errorf("new owner assignment = %+v, want the warm answer's %+v", got.Assignment, want.Assignment)
	}
}

// TestReloadManagesProbers: a reload starts probers for added backends
// and retires removed ones; a same-set reload is a no-op.
func TestReloadManagesProbers(t *testing.T) {
	fleet := newFleet(t, 3, "")
	rt, _ := newTestRouter(t, fleet[:2])
	urls := fleetURLs(fleet)

	has := func(url string) bool { return rt.state.get(url) != nil }
	if has(urls[2]) {
		t.Fatal("prober watching a backend that is not a member yet")
	}
	if err := rt.Reload(urls); err != nil {
		t.Fatal(err)
	}
	if !has(urls[2]) {
		t.Error("reload did not start a prober for the added backend")
	}
	// Same set, different order: no-op, no rebuild counted.
	before := rt.met.ringRebuilds.Load()
	if err := rt.Reload([]string{urls[2], urls[0], urls[1]}); err != nil {
		t.Fatal(err)
	}
	if n := rt.met.ringRebuilds.Load(); n != before {
		t.Errorf("same-set reload bumped ring_rebuilds %d -> %d", before, n)
	}
	// Shrink: the removed backend's prober stops and healthy() is false.
	if err := rt.Reload(urls[1:]); err != nil {
		t.Fatal(err)
	}
	if has(urls[0]) {
		t.Error("reload did not stop the removed backend's prober")
	}
	if rt.state.healthy(urls[0]) {
		t.Error("removed backend still reports healthy")
	}
	// An empty reload is rejected and changes nothing.
	if err := rt.Reload(nil); err == nil {
		t.Error("empty reload accepted")
	}
	if got := rt.Backends(); len(got) != 2 {
		t.Errorf("membership = %v after rejected reload, want 2 backends", got)
	}
}

// TestAdminBackendsEndpoint: the HTTP twin of SIGHUP reload, gated on
// EnableAdmin.
func TestAdminBackendsEndpoint(t *testing.T) {
	fleet := newFleet(t, 3, "")
	_, plain := newTestRouter(t, fleet[:2])
	resp, _ := postJSON(t, plain.URL+"/admin/backends",
		adminBackendsRequest{Backends: fleetURLs(fleet)})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("admin endpoint without EnableAdmin answered %d, want 404", resp.StatusCode)
	}

	rt, ts := newTestRouterCfg(t, fleet[:2], func(c *Config) { c.EnableAdmin = true })
	var got adminBackendsResult
	getJSON(t, ts.URL+"/admin/backends", &got)
	if len(got.Backends) != 2 || got.RingRebuilds != 1 {
		t.Errorf("GET /admin/backends = %+v, want 2 backends and 1 rebuild", got)
	}
	resp, raw := postJSON(t, ts.URL+"/admin/backends",
		adminBackendsRequest{Backends: fleetURLs(fleet)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /admin/backends: status %d: %s", resp.StatusCode, raw)
	}
	getJSON(t, ts.URL+"/admin/backends", &got)
	if len(got.Backends) != 3 || got.RingRebuilds != 2 {
		t.Errorf("after resize: %+v, want 3 backends and 2 rebuilds", got)
	}
	if rt.met.ringRebuilds.Load() != 2 {
		t.Errorf("ring_rebuilds = %d, want 2", rt.met.ringRebuilds.Load())
	}
	resp, _ = postJSON(t, ts.URL+"/admin/backends", adminBackendsRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty membership accepted with status %d, want 400", resp.StatusCode)
	}
}

// TestAnyBackendColdStart is the regression test for the cold-start 503:
// before any backend has probed healthy (here: hysteresis needs 3
// successes but only the boot probe has run), GET /v1/benchmarks must
// still be proxied by trying every backend rather than answering 503.
func TestAnyBackendColdStart(t *testing.T) {
	fleet := newFleet(t, 2, "")
	rt, ts := newTestRouterCfg(t, fleet, func(c *Config) {
		c.ProbeInterval = time.Hour // only the boot probe ever runs
		c.RecoverAfter = 3          // which can never reach healthy
	})
	if rt.state.anyHealthy() {
		t.Fatal("test premise broken: a backend probed healthy")
	}
	resp, raw := postJSON(t, ts.URL+"/v1/insert",
		server.InsertRequest{Tree: treeText(t, 40), Algo: "nom"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cold-start insert status = %d, want 200: %s", resp.StatusCode, raw)
	}
	gr, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Body.Close()
	if gr.StatusCode != http.StatusOK {
		t.Errorf("cold-start GET /v1/benchmarks = %d, want 200", gr.StatusCode)
	}
}

// TestGatherGroupDistinguishesBadBody: the regression test for the
// misleading 502 — an unparsable sub-batch body must not be reported as
// an item-count mismatch ("0 items for N sent").
func TestGatherGroupDistinguishesBadBody(t *testing.T) {
	rt := &Router{cfg: Config{}.withDefaults(), met: newRMetrics()}
	items := []preparedItem{{index: 0, owner: "http://a"}, {index: 1, owner: "http://a"}}

	out := rawBatchResult{Items: make([]rawBatchItem, 2)}
	rt.gatherGroup(&out,
		&attempt{backend: "http://a", status: 200, header: http.Header{}, body: []byte("<html>gateway error</html>")},
		items)
	for i, it := range out.Items {
		if it.Status != http.StatusBadGateway {
			t.Fatalf("item %d status = %d, want 502", i, it.Status)
		}
		if !strings.Contains(it.Error, "unparsable") {
			t.Errorf("item %d error %q should name the unparsable body", i, it.Error)
		}
		if strings.Contains(it.Error, "0 items") {
			t.Errorf("item %d error %q misreports a corrupt body as a count mismatch", i, it.Error)
		}
	}

	out = rawBatchResult{Items: make([]rawBatchItem, 2)}
	rt.gatherGroup(&out,
		&attempt{backend: "http://a", status: 200, header: http.Header{},
			body: []byte(`{"items":[{"index":0,"status":200}],"succeeded":1,"errors":0}`)},
		items)
	for i, it := range out.Items {
		if it.Status != http.StatusBadGateway {
			t.Fatalf("item %d status = %d, want 502", i, it.Status)
		}
		if !strings.Contains(it.Error, "1 items for 2 sent") {
			t.Errorf("item %d error %q should report the 1-for-2 count mismatch", i, it.Error)
		}
	}
}

// TestRouterCloseMidStream: closing the router while a proxied stream is
// in flight must drain the prober goroutines — no leak under -race. The backend streams NDJSON until its client disappears.
func TestRouterCloseMidStream(t *testing.T) {
	baseline := runtime.NumGoroutine()

	streaming := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/readyz"):
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]string{"status": "ready", "instance": "fake"})
		case strings.HasSuffix(r.URL.Path, "/v1/yield:stream"):
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			fl, _ := w.(http.Flusher)
			if fl != nil {
				fl.Flush() // push headers so the relay chain unblocks
			}
			select {
			case streaming <- struct{}{}:
			case <-r.Context().Done():
				return
			}
			for {
				if _, err := w.Write([]byte(`{"type":"progress"}` + "\n")); err != nil {
					return
				}
				if fl != nil {
					fl.Flush()
				}
				select {
				case <-r.Context().Done():
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
		default:
			http.NotFound(w, r)
		}
	}))
	defer backend.Close()

	rt, err := New(Config{
		Backends:      []string{backend.URL},
		ProbeInterval: 25 * time.Millisecond,
		FailAfter:     1,
		RecoverAfter:  1,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	waitFor(t, "backend healthy", func() bool { return rt.state.healthy(backend.URL) })

	body, err := json.Marshal(server.YieldRequest{
		InsertRequest: server.InsertRequest{Tree: treeText(t, 60), Algo: "nom"},
		MonteCarlo:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	resp, err := client.Post(ts.URL+"/v1/yield:stream", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	<-streaming // the stream is live end to end

	// Close the router mid-stream: must return, not hang on the stream.
	closed := make(chan struct{})
	go func() { rt.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Router.Close hung while a stream was in flight")
	}
	resp.Body.Close()
	ts.Close()
	backend.Close()
	client.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}

	waitFor(t, "goroutines to drain after Close", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	})
}
