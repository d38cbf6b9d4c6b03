package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"vabuf"
	"vabuf/internal/stats"
)

func TestBatchInsertMixedWithPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	treeText := smallTreeText(t)
	algos := []string{"nom", "d2d", "wid"}

	const n = 32
	const bad = 17
	items := make([]InsertRequest, n)
	for i := range items {
		items[i] = InsertRequest{Algo: algos[i%len(algos)]}
	}
	items[bad].Algo = "frobnicate" // one invalid item must not fail the batch

	resp, raw := postJSON(t, ts.URL+"/v1/insert:batch", BatchRequest[InsertRequest]{
		Defaults: &InsertRequest{Tree: treeText},
		Items:    items,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200: %s", resp.StatusCode, raw)
	}
	var out BatchResult[*InsertResult]
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != n {
		t.Fatalf("batch returned %d items, want %d", len(out.Items), n)
	}
	if out.Succeeded != n-1 || out.Errors != 1 {
		t.Fatalf("succeeded/errors = %d/%d, want %d/1", out.Succeeded, out.Errors, n-1)
	}
	byAlgo := make(map[string]*InsertResult)
	for i, item := range out.Items {
		if item.Index != i {
			t.Errorf("items[%d].Index = %d", i, item.Index)
		}
		if i == bad {
			if item.Status != http.StatusBadRequest || item.Error == "" || item.Result != nil {
				t.Errorf("invalid item = %+v, want a 400 with an error", item)
			}
			continue
		}
		if item.Status != http.StatusOK || item.Result == nil {
			t.Fatalf("items[%d] = status %d error %q, want 200", i, item.Status, item.Error)
		}
		if item.Result.NumBuffers == 0 {
			t.Errorf("items[%d] inserted no buffers", i)
		}
		// Identical (tree, algo) items must agree regardless of worker.
		algo := algos[i%len(algos)]
		if prev, ok := byAlgo[algo]; ok {
			if prev.MeanPS != item.Result.MeanPS || prev.NumBuffers != item.Result.NumBuffers {
				t.Errorf("%s batch items diverged: %+v vs %+v", algo, prev, item.Result)
			}
		} else {
			byAlgo[algo] = item.Result
		}
	}
}

func TestBatchInsertCacheHitsAcrossIdenticalItems(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// The items share one tree and one model but differ in quantile, so
	// they fingerprint-distinctly (no dedupe) and each runs its own DP —
	// exercising the tree/model LRUs, not the result cache.
	base := InsertRequest{Tree: smallTreeText(t), Algo: "wid"}
	items := make([]InsertRequest, 4)
	for i := range items {
		items[i] = base
		items[i].Quantile = 0.05 + 0.05*float64(i)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/insert:batch", BatchRequest[InsertRequest]{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var out BatchResult[*InsertResult]
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	// prepare resolves items sequentially on the handler goroutine, so
	// the first item builds the tree and model and the rest hit the LRUs.
	for i, item := range out.Items {
		if item.Status != http.StatusOK {
			t.Fatalf("items[%d] status %d: %s", i, item.Status, item.Error)
		}
		wantHit := i > 0
		if item.Result.TreeCacheHit != wantHit || item.Result.ModelCacheHit != wantHit {
			t.Errorf("items[%d] cache hits tree=%t model=%t, want %t",
				i, item.Result.TreeCacheHit, item.Result.ModelCacheHit, wantHit)
		}
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	caches := met["caches"].(map[string]any)
	for _, which := range []string{"tree", "model"} {
		c := caches[which].(map[string]any)
		if hits := c["hits"].(float64); hits < 3 {
			t.Errorf("%s cache hits = %g after 4 identical items, want >= 3", which, hits)
		}
	}
}

func TestBatchYield(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, raw := postJSON(t, ts.URL+"/v1/yield:batch", BatchRequest[YieldRequest]{
		Defaults: &YieldRequest{
			InsertRequest: InsertRequest{Tree: smallTreeText(t), Algo: "wid"},
			MonteCarlo:    128,
		},
		Items: []YieldRequest{{}, {InsertRequest: InsertRequest{Algo: "d2d"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var out BatchResult[*YieldResult]
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Succeeded != 2 || out.Errors != 0 {
		t.Fatalf("succeeded/errors = %d/%d: %s", out.Succeeded, out.Errors, raw)
	}
	for i, item := range out.Items {
		if item.Result.MonteCarlo == nil || item.Result.MonteCarlo.Samples != 128 {
			t.Errorf("items[%d] monte carlo = %+v, want 128 samples", i, item.Result.MonteCarlo)
		}
		if item.Result.SigmaPS <= 0 {
			t.Errorf("items[%d] sigma = %g, want > 0", i, item.Result.SigmaPS)
		}
	}
}

func TestBatchBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBatchItems: 2})
	resp, raw := postJSON(t, ts.URL+"/v1/insert:batch", BatchRequest[InsertRequest]{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status %d, want 400: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/insert:batch", BatchRequest[InsertRequest]{
		Items: make([]InsertRequest, 3),
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "cap") {
		t.Errorf("oversized batch status %d, want 400 naming the cap: %s", resp.StatusCode, raw)
	}
}

func TestBatchOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, SweepQueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	// Hold the single worker, then fill the one sweep slot.
	if !s.pool.trySubmit(func() { close(started); <-release }, classInteractive) {
		t.Fatal("hold submit failed")
	}
	<-started
	if !s.pool.trySubmit(func() {}, classSweep) {
		t.Fatal("could not fill the sweep queue slot")
	}
	defer close(release)

	treeText := smallTreeText(t)
	resp, raw := postJSON(t, ts.URL+"/v1/insert:batch", BatchRequest[InsertRequest]{
		Defaults: &InsertRequest{Tree: treeText, Algo: "nom"},
		Items:    make([]InsertRequest, 2),
	})
	// Nothing could be enqueued: the aggregate answers 429 but still
	// carries the per-item statuses.
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-overload batch status %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 batch response missing Retry-After")
	}
	var out BatchResult[*InsertResult]
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 2 || out.Succeeded != 0 {
		t.Fatalf("succeeded/errors = %d/%d, want 0/2", out.Succeeded, out.Errors)
	}
	for i, item := range out.Items {
		if item.Status != http.StatusTooManyRequests {
			t.Errorf("items[%d].Status = %d, want 429", i, item.Status)
		}
	}
}

// TestInteractiveBeatsQueuedBatch is the acceptance scenario: an
// interactive /v1/insert submitted while a batch is queued must be
// dispatched before the remaining sweep items.
func TestInteractiveBeatsQueuedBatch(t *testing.T) {
	// SweepEvery 1 disables the starvation guard so the preference is
	// purely interactive-first and the dispatch order is deterministic.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, SweepQueueDepth: 8, SweepEvery: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	s.faults = &faultHooks{beforeJob: func(string) { started <- struct{}{}; <-gate }}

	treeText := smallTreeText(t)
	type reply struct {
		status int
		raw    []byte
	}
	// Distinct quantiles keep the three items (and the interactive probe,
	// which uses the 0.05 default) fingerprint-distinct, so nothing
	// coalesces and all three items really occupy the sweep queue.
	items := make([]InsertRequest, 3)
	for i := range items {
		items[i].Quantile = 0.1 + 0.05*float64(i)
	}
	batchDone := make(chan reply, 1)
	go func() {
		resp, raw := postJSON(t, ts.URL+"/v1/insert:batch", BatchRequest[InsertRequest]{
			Defaults: &InsertRequest{Tree: treeText, Algo: "nom"},
			Items:    items,
		})
		batchDone <- reply{resp.StatusCode, raw}
	}()
	<-started // batch item 1 holds the single worker; items 2–3 queued

	interactiveDone := make(chan reply, 1)
	go func() {
		resp, raw := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Tree: treeText, Algo: "nom"})
		interactiveDone <- reply{resp.StatusCode, raw}
	}()
	waitFor(t, func() bool { return s.pool.queuedLen(classInteractive) == 1 },
		"interactive request queued")

	gate <- struct{}{} // finish batch item 1; the next dispatch decides
	<-started          // a job started: with priority it is the interactive one
	gate <- struct{}{} // let it finish

	select {
	case r := <-interactiveDone:
		if r.status != http.StatusOK {
			t.Fatalf("interactive status %d: %s", r.status, r.raw)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("interactive request not dispatched ahead of queued sweep items")
	}
	select {
	case r := <-batchDone:
		t.Fatalf("batch finished before its remaining sweep items ran: %+v", r)
	default:
	}

	close(gate) // drain the two remaining sweep items
	r := <-batchDone
	if r.status != http.StatusOK {
		t.Fatalf("batch status %d: %s", r.status, r.raw)
	}
	var out BatchResult[*InsertResult]
	if err := json.Unmarshal(r.raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Succeeded != 3 {
		t.Fatalf("batch succeeded = %d, want 3: %s", out.Succeeded, r.raw)
	}
}

// TestMonteCarloSummaryParity pins the server's Monte-Carlo reduction to
// the library's own descriptive stats: the /v1/yield quantile must equal
// stats.Percentile and the sigma the unbiased stats.MeanVar — the same
// helpers the experiments pipeline uses.
func TestMonteCarloSummaryParity(t *testing.T) {
	samples := make([]float64, 999)
	for i := range samples {
		// Deterministic, irregular, unsorted sample vector.
		samples[i] = math.Sin(float64(i)*12.9898) * 43758.5453
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		got := summarizeSamples(samples, q)
		if got == nil || got.Samples != len(samples) {
			t.Fatalf("q=%g: summary = %+v", q, got)
		}
		wantQ, err := stats.Percentile(samples, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.QuantileRAT != wantQ {
			t.Errorf("q=%g: quantile = %v, want stats.Percentile = %v", q, got.QuantileRAT, wantQ)
		}
		wantMean, wantVar := stats.MeanVar(samples)
		if got.MeanPS != wantMean || got.SigmaPS != math.Sqrt(wantVar) {
			t.Errorf("q=%g: mean/sigma = %v/%v, want %v/%v",
				q, got.MeanPS, got.SigmaPS, wantMean, math.Sqrt(wantVar))
		}
		// And the facade re-exports agree with the internal package.
		if fq, _ := vabuf.Percentile(samples, q); fq != wantQ {
			t.Errorf("facade Percentile = %v, want %v", fq, wantQ)
		}
	}
	if summarizeSamples(nil, 0.5) != nil {
		t.Error("empty sample vector should summarize to nil")
	}
}

func TestOversizedBodyReturns413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxRequestBytes: 64})
	body := fmt.Sprintf(`{"bench":"p1","algo":"nom","tree":%q}`, strings.Repeat("x", 256))
	resp, err := http.Post(ts.URL+"/v1/insert", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResult
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, e.Error)
	}
	if !strings.Contains(e.Error, "64-byte limit") {
		t.Errorf("error %q does not name the byte limit", e.Error)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"bench":"p1","algo":"nom"} garbage`,
		`{"bench":"p1","algo":"nom"}{"bench":"p2"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/insert", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResult
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		if !strings.Contains(e.Error, "trailing") {
			t.Errorf("body %q: error %q does not mention trailing data", body, e.Error)
		}
	}
}

// TestQueueDepthGaugeExact holds the single worker via the beforeJob
// fault hook and checks that the /metrics queue-depth gauge counts
// queued + in-flight exactly — no transient low reading between dequeue and execution.
func TestQueueDepthGaugeExact(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.faults = &faultHooks{beforeJob: func(string) { started <- struct{}{}; <-release }}

	treeText := smallTreeText(t)
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		postJSON(t, ts.URL+"/v1/insert", InsertRequest{Tree: treeText, Algo: "nom"})
	}()
	<-started // the worker is in the held job: in-flight = 1, queued = 0

	var drained sync.WaitGroup
	for i := 0; i < 3; i++ {
		drained.Add(1)
		if !s.pool.trySubmit(func() { drained.Done() }, classInteractive) {
			t.Fatal("queueing filler job failed")
		}
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	queue := met["queue"].(map[string]any)
	if depth := queue["depth"].(float64); depth != 4 {
		t.Fatalf("queue depth = %g with 1 in-flight + 3 queued, want exactly 4", depth)
	}
	classes := queue["classes"].(map[string]any)
	inter := classes["interactive"].(map[string]any)
	if q, f := inter["queued"].(float64), inter["in_flight"].(float64); q != 3 || f != 1 {
		t.Fatalf("interactive queued/in_flight = %g/%g, want 3/1", q, f)
	}

	close(release)
	drained.Wait()
	<-httpDone
	waitFor(t, func() bool { return s.pool.depth() == 0 }, "queue drained to depth 0")
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
