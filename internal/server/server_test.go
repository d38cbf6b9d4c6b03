package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vabuf"
)

// newTestServer starts a Server behind httptest with the given config.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// smallTreeText serializes a small random routing tree in the rctree
// text format — fast enough for race-enabled concurrency tests.
func smallTreeText(t testing.TB) string {
	t.Helper()
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "t8", Sinks: 8, Seed: 7})
	if err != nil {
		t.Fatalf("generating tree: %v", err)
	}
	var buf bytes.Buffer
	if err := vabuf.WriteTree(&buf, tree); err != nil {
		t.Fatalf("writing tree: %v", err)
	}
	return buf.String()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, raw
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if dst != nil {
		if err := json.Unmarshal(raw, dst); err != nil {
			t.Fatalf("unmarshal %s: %v\n%s", url, err, raw)
		}
	}
	return resp
}

func TestInsertBenchmarkNom(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, raw := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Bench: "p1", Algo: "nom"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var res InsertResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.Sinks != 269 {
		t.Errorf("sinks = %d, want 269", res.Sinks)
	}
	if res.NumBuffers == 0 {
		t.Error("no buffers inserted")
	}
	if res.SigmaPS != 0 {
		t.Errorf("deterministic run has sigma %g", res.SigmaPS)
	}
	if res.Algo != "nom" || res.Rule != "2P" {
		t.Errorf("echoed algo/rule = %q/%q", res.Algo, res.Rule)
	}
}

func TestInsertCacheHit(t *testing.T) {
	// Result caching off: this test is about the tree/model LRUs, which
	// only show on the repeat if the identical request actually re-runs.
	_, ts := newTestServer(t, Config{Workers: 2, ResultCacheSize: -1})
	req := InsertRequest{Tree: smallTreeText(t), Algo: "wid"}

	resp1, raw1 := postJSON(t, ts.URL+"/v1/insert", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, raw1)
	}
	var first InsertResult
	if err := json.Unmarshal(raw1, &first); err != nil {
		t.Fatal(err)
	}
	if first.TreeCacheHit || first.ModelCacheHit {
		t.Errorf("first request reported cache hits: tree=%t model=%t",
			first.TreeCacheHit, first.ModelCacheHit)
	}

	resp2, raw2 := postJSON(t, ts.URL+"/v1/insert", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d: %s", resp2.StatusCode, raw2)
	}
	var second InsertResult
	if err := json.Unmarshal(raw2, &second); err != nil {
		t.Fatal(err)
	}
	if !second.TreeCacheHit || !second.ModelCacheHit {
		t.Errorf("second request missed the caches: tree=%t model=%t",
			second.TreeCacheHit, second.ModelCacheHit)
	}
	if first.MeanPS != second.MeanPS || first.SigmaPS != second.SigmaPS ||
		first.ObjectivePS != second.ObjectivePS || first.NumBuffers != second.NumBuffers {
		t.Errorf("cached run diverged: first %+v, second %+v", first, second)
	}

	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	caches := met["caches"].(map[string]any)
	model := caches["model"].(map[string]any)
	if hits := model["hits"].(float64); hits < 1 {
		t.Errorf("model cache hits = %g, want >= 1", hits)
	}
	tree := caches["tree"].(map[string]any)
	if hits := tree["hits"].(float64); hits < 1 {
		t.Errorf("tree cache hits = %g, want >= 1", hits)
	}
	pruning := met["pruning"].(map[string]any)
	if gen := pruning["generated"].(float64); gen <= 0 {
		t.Errorf("pruning.generated = %g, want > 0", gen)
	}
	latency := met["latency_ms"].(map[string]any)
	hist, ok := latency["wid/2P"].(map[string]any)
	if !ok {
		t.Fatalf("latency_ms missing wid/2P: %v", latency)
	}
	if count := hist["count"].(float64); count < 2 {
		t.Errorf("wid/2P latency count = %g, want >= 2", count)
	}
}

func TestConcurrentInserts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	treeText := smallTreeText(t)
	algos := []string{"nom", "d2d", "wid"}

	const n = 12
	results := make([]InsertResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, _ := json.Marshal(InsertRequest{Tree: treeText, Algo: algos[i%len(algos)]})
			resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			errs[i] = json.Unmarshal(raw, &results[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, algos[i%len(algos)], err)
		}
	}
	// Same algo + same tree must give identical numbers regardless of
	// which worker ran it or whether the model came from the cache.
	byAlgo := make(map[string]InsertResult)
	for i, res := range results {
		algo := algos[i%len(algos)]
		if prev, ok := byAlgo[algo]; ok {
			if prev.MeanPS != res.MeanPS || prev.NumBuffers != res.NumBuffers {
				t.Errorf("%s runs diverged: %+v vs %+v", algo, prev, res)
			}
		} else {
			byAlgo[algo] = res
		}
	}
}

func TestOverloadRejectsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.faults = &faultHooks{beforeJob: func(string) {
		started <- struct{}{}
		<-release
	}}

	treeText := smallTreeText(t)
	type outcome struct {
		status int
		err    error
	}
	firstDone := make(chan outcome, 1)
	go func() {
		payload, _ := json.Marshal(InsertRequest{Tree: treeText, Algo: "nom"})
		resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(payload))
		if err != nil {
			firstDone <- outcome{err: err}
			return
		}
		resp.Body.Close()
		firstDone <- outcome{status: resp.StatusCode}
	}()

	<-started // the single worker is now held busy
	if !s.pool.trySubmit(func() { <-release }, classInteractive) {
		t.Fatal("could not fill the single queue slot")
	}

	// A distinct quantile keeps this probe from coalescing onto the held
	// identical request — it must reach the full queue and bounce.
	resp, raw := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Tree: treeText, Algo: "nom", Quantile: 0.25})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(release)
	out := <-firstDone
	if out.err != nil || out.status != http.StatusOK {
		t.Fatalf("held request finished with %d/%v", out.status, out.err)
	}

	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	queue := met["queue"].(map[string]any)
	if rejected := queue["rejected"].(float64); rejected < 1 {
		t.Errorf("queue.rejected = %g, want >= 1", rejected)
	}
}

func TestRequestDeadlineMapsTo504(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, raw := postJSON(t, ts.URL+"/v1/insert",
		InsertRequest{Bench: "r1", Algo: "wid", TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, raw)
	}
	var e ErrorResult
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "time limit") {
		t.Errorf("error %q does not mention the time limit", e.Error)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	treeText := smallTreeText(t)
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"bench":`},
		{"unknown field", `{"bench":"p1","frobnicate":1}`},
		{"no tree", `{}`},
		{"both bench and tree", fmt.Sprintf(`{"bench":"p1","tree":%q}`, treeText)},
		{"unknown bench", `{"bench":"nope"}`},
		{"garbage tree text", `{"tree":"this is not a tree"}`},
		{"unknown algo", `{"bench":"p1","algo":"fast"}`},
		{"unknown rule", `{"bench":"p1","rule":"5p"}`},
		{"unknown hull", `{"bench":"p1","hull":"convex"}`},
		{"hull on", `{"bench":"p1","hull":"on"}`},
		{"pbar out of range", `{"bench":"p1","pbar":1.5}`},
		{"quantile out of range", `{"bench":"p1","quantile":-0.1}`},
		{"negative timeout", `{"bench":"p1","timeout_ms":-5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/insert", "application/json",
				strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", resp.StatusCode, raw)
			}
			var e ErrorResult
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Errorf("malformed error body: %s", raw)
			}
		})
	}
}

func TestBenchmarksAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var bm BenchmarksResult
	if resp := getJSON(t, ts.URL+"/v1/benchmarks", &bm); resp.StatusCode != http.StatusOK {
		t.Fatalf("benchmarks status %d", resp.StatusCode)
	}
	want := vabuf.Benchmarks()
	if len(bm.Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %v, want %v", bm.Benchmarks, want)
	}
	for i := range want {
		if bm.Benchmarks[i] != want[i] {
			t.Errorf("benchmarks[%d] = %q, want %q", i, bm.Benchmarks[i], want[i])
		}
	}

	var hz map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if hz["status"] != "ok" {
		t.Errorf("healthz = %v", hz)
	}
}

func TestYieldWithMonteCarlo(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, raw := postJSON(t, ts.URL+"/v1/yield", map[string]any{
		"tree":        smallTreeText(t),
		"algo":        "wid",
		"monte_carlo": 256,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var res YieldResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.SigmaPS <= 0 {
		t.Errorf("yield sigma = %g, want > 0", res.SigmaPS)
	}
	// q = 0.05 is the lower tail: the 95%-yield RAT sits below the mean.
	if res.YieldRATPS >= res.MeanPS {
		t.Errorf("yield RAT %g >= mean %g", res.YieldRATPS, res.MeanPS)
	}
	if res.MonteCarlo == nil || res.MonteCarlo.Samples != 256 {
		t.Fatalf("monte carlo block = %+v, want 256 samples", res.MonteCarlo)
	}
	// Canonical and sampled moments should roughly agree.
	if diff := res.MonteCarlo.MeanPS - res.MeanPS; diff > 5*res.SigmaPS || diff < -5*res.SigmaPS {
		t.Errorf("MC mean %g far from canonical mean %g (sigma %g)",
			res.MonteCarlo.MeanPS, res.MeanPS, res.SigmaPS)
	}
}

func TestCloseDrainsInFlightJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	if !s.pool.trySubmit(func() { close(started); <-release }, classInteractive) {
		t.Fatal("submit failed")
	}
	<-started

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the job finished")
	}
}
