package server

// Tests for the serve-path memoization layer: the content-addressed
// result cache, single-flight request coalescing, batch dedupe, the
// streaming adaptive Monte-Carlo endpoint, and result persistence in
// cache snapshots.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// fingerprintOf normalizes a copy of the request and returns its cache
// key — the same key the serve path computes.
func fingerprintOf(t *testing.T, req InsertRequest) string {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return req.Fingerprint("")
}

func yieldFingerprintOf(t *testing.T, req YieldRequest) string {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return req.Fingerprint("")
}

// pruningRuns reads the lifetime DP-run counter from /metrics.
func pruningRuns(t *testing.T, url string) float64 {
	t.Helper()
	var met map[string]any
	getJSON(t, url+"/metrics", &met)
	return met["pruning"].(map[string]any)["runs"].(float64)
}

// TestResultCacheWarmByteIdentical is the memoization contract: the
// warm repeat of a completed request answers the stored response body
// verbatim — byte-identical to the cold response, ElapsedMS and all —
// without running the DP again.
func TestResultCacheWarmByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	treeText := smallTreeText(t)

	cases := []struct {
		name string
		path string
		body any
	}{
		{"insert", "/v1/insert", InsertRequest{Tree: treeText, Algo: "wid"}},
		{"yield", "/v1/yield", YieldRequest{
			InsertRequest: InsertRequest{Tree: treeText, Algo: "wid"},
			MonteCarlo:    64,
			Seed:          3,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			respCold, cold := postJSON(t, ts.URL+tc.path, tc.body)
			if respCold.StatusCode != http.StatusOK {
				t.Fatalf("cold status %d: %s", respCold.StatusCode, cold)
			}
			runsAfterCold := pruningRuns(t, ts.URL)

			respWarm, warm := postJSON(t, ts.URL+tc.path, tc.body)
			if respWarm.StatusCode != http.StatusOK {
				t.Fatalf("warm status %d: %s", respWarm.StatusCode, warm)
			}
			if !bytes.Equal(cold, warm) {
				t.Errorf("warm response differs from cold:\ncold: %s\nwarm: %s", cold, warm)
			}
			if runs := pruningRuns(t, ts.URL); runs != runsAfterCold {
				t.Errorf("warm repeat ran the DP: runs %g -> %g", runsAfterCold, runs)
			}
		})
	}

	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	result := met["caches"].(map[string]any)["result"].(map[string]any)
	if hits := result["hits"].(float64); hits < 2 {
		t.Errorf("result cache hits = %g after two warm repeats, want >= 2", hits)
	}
	if size := result["size"].(float64); size != 2 {
		t.Errorf("result cache size = %g, want 2", size)
	}
}

// TestCoalescedIdenticalRequestsRunOnce holds the leader's job on the
// worker while N-1 identical requests arrive: they must join its flight
// (no extra pool jobs), adopt the same bytes, and the DP must have run
// exactly once.
func TestCoalescedIdenticalRequestsRunOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.faults = &faultHooks{beforeJob: func(string) { started <- struct{}{}; <-release }}

	req := InsertRequest{Tree: smallTreeText(t), Algo: "wid"}
	fp := fingerprintOf(t, req)

	const n = 8
	raws := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/v1/insert", req)
			statuses[i], raws[i] = resp.StatusCode, raw
		}(i)
	}

	<-started // the leader is on the worker, holding the flight open
	waitFor(t, func() bool { return s.flights.waitersOf(fp) == n-1 },
		"all other requests joined the leader's flight")
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], raws[i])
		}
		if !bytes.Equal(raws[i], raws[0]) {
			t.Errorf("request %d answered different bytes than request 0", i)
		}
	}
	if runs := pruningRuns(t, ts.URL); runs != 1 {
		t.Errorf("pruning.runs = %g after %d coalesced requests, want 1", runs, n)
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	coal := met["coalescing"].(map[string]any)
	if got := coal["coalesced"].(map[string]any)["/v1/insert"].(float64); got != n-1 {
		t.Errorf("coalesced[/v1/insert] = %g, want %d", got, n-1)
	}
	if got := coal["inflight"].(float64); got != 0 {
		t.Errorf("inflight flights = %g after drain, want 0", got)
	}
}

// TestFingerprintTable pins the fingerprint inclusion set: every
// output-affecting field must change the key, spelling and scheduling
// must not.
func TestFingerprintTable(t *testing.T) {
	base := InsertRequest{Bench: "r1", Algo: "wid"}
	baseFP := fingerprintOf(t, base)

	t.Run("insert_same", func(t *testing.T) {
		same := []struct {
			name string
			req  InsertRequest
		}{
			{"explicit defaults", InsertRequest{Bench: "r1", Algo: "wid", Rule: "2p",
				Pbar: 0.5, Budget: 0.15, Quantile: 0.05}},
			{"rule case-insensitive", InsertRequest{Bench: "r1", Algo: "wid", Rule: "2P"}},
			{"timeout excluded", InsertRequest{Bench: "r1", Algo: "wid", TimeoutMS: 5000}},
			{"priority excluded", InsertRequest{Bench: "r1", Algo: "wid", Priority: "sweep"}},
			{"parallelism excluded", InsertRequest{Bench: "r1", Algo: "wid", Parallelism: 7}},
			{"hull excluded", InsertRequest{Bench: "r1", Algo: "wid", Hull: "off"}},
		}
		for _, tc := range same {
			if fp := fingerprintOf(t, tc.req); fp != baseFP {
				t.Errorf("%s: fingerprint changed", tc.name)
			}
		}
	})

	t.Run("insert_diff", func(t *testing.T) {
		hetero := false
		diff := []struct {
			name string
			req  InsertRequest
		}{
			{"bench", InsertRequest{Bench: "r2", Algo: "wid"}},
			{"algo", InsertRequest{Bench: "r1", Algo: "d2d"}},
			{"rule", InsertRequest{Bench: "r1", Algo: "wid", Rule: "4p"}},
			{"pbar", InsertRequest{Bench: "r1", Algo: "wid", Pbar: 0.6}},
			{"budget", InsertRequest{Bench: "r1", Algo: "wid", Budget: 0.2}},
			{"quantile", InsertRequest{Bench: "r1", Algo: "wid", Quantile: 0.1}},
			{"max_candidates", InsertRequest{Bench: "r1", Algo: "wid", MaxCandidates: 9}},
			{"wire_sizing", InsertRequest{Bench: "r1", Algo: "wid", WireSizing: true}},
			{"inverters", InsertRequest{Bench: "r1", Algo: "wid", Inverters: true}},
			{"include_assignment", InsertRequest{Bench: "r1", Algo: "wid", IncludeAssignment: true}},
			{"heterogeneous", InsertRequest{Bench: "r1", Algo: "wid", Heterogeneous: &hetero}},
		}
		seen := map[string]string{baseFP: "base"}
		for _, tc := range diff {
			fp := fingerprintOf(t, tc.req)
			if prev, dup := seen[fp]; dup {
				t.Errorf("%s: fingerprint collides with %s", tc.name, prev)
			}
			seen[fp] = tc.name
		}
	})

	t.Run("yield", func(t *testing.T) {
		ybase := YieldRequest{InsertRequest: base, MonteCarlo: 128}
		ybaseFP := yieldFingerprintOf(t, ybase)
		if ybaseFP == baseFP {
			t.Error("yield and insert fingerprints share a key space")
		}
		diff := []YieldRequest{
			{InsertRequest: base, MonteCarlo: 256},              // sample budget
			{InsertRequest: base, MonteCarlo: 128, Seed: 2},     // seed
			{InsertRequest: base, MonteCarlo: 128, MCTol: 0.01}, // adaptive sampler
			{InsertRequest: base},                               // no MC at all
		}
		seen := map[string]int{ybaseFP: -1}
		for i, req := range diff {
			fp := yieldFingerprintOf(t, req)
			if prev, dup := seen[fp]; dup {
				t.Errorf("yield case %d: fingerprint collides with case %d", i, prev)
			}
			seen[fp] = i
		}
		// Parallelism changes neither stream (every worker count draws
		// the same samples), so it stays out of both samplers' keys.
		for _, tol := range []float64{0, 0.01} {
			p1 := yieldFingerprintOf(t, YieldRequest{InsertRequest: base, MonteCarlo: 128, MCTol: tol})
			p8 := yieldFingerprintOf(t, YieldRequest{
				InsertRequest: InsertRequest{Bench: "r1", Algo: "wid", Parallelism: 8},
				MonteCarlo:    128, MCTol: tol,
			})
			if p1 != p8 {
				t.Errorf("mc_tol %g: fingerprint depends on parallelism", tol)
			}
		}
	})
}

// TestBatchDedupeIdenticalItems posts a batch with three identical items
// and one distinct one: the DP must run twice, the duplicates adopt the
// leader's result, and the intra-batch coalescing counter records them.
func TestBatchDedupeIdenticalItems(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	treeText := smallTreeText(t)
	dup := InsertRequest{Tree: treeText, Algo: "wid"}
	distinct := InsertRequest{Tree: treeText, Algo: "wid", Quantile: 0.25}

	resp, raw := postJSON(t, ts.URL+"/v1/insert:batch", BatchRequest[InsertRequest]{
		Items: []InsertRequest{dup, dup, distinct, dup},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var out BatchResult[*InsertResult]
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Succeeded != 4 || out.Errors != 0 {
		t.Fatalf("succeeded/errors = %d/%d, want 4/0: %s", out.Succeeded, out.Errors, raw)
	}
	for _, i := range []int{1, 3} {
		if !reflect.DeepEqual(out.Items[i].Result, out.Items[0].Result) {
			t.Errorf("duplicate item %d diverged from its leader", i)
		}
		if out.Items[i].Index != i {
			t.Errorf("item %d echoes index %d", i, out.Items[i].Index)
		}
	}
	if runs := pruningRuns(t, ts.URL); runs != 2 {
		t.Errorf("pruning.runs = %g for 3 identical + 1 distinct items, want 2", runs)
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	coal := met["coalescing"].(map[string]any)["coalesced"].(map[string]any)
	if got := coal["/v1/insert:batch"].(float64); got != 2 {
		t.Errorf("coalesced[/v1/insert:batch] = %g, want 2", got)
	}
}

// TestSnapshotRoundTripResultCache saves a warm server's snapshot and
// restores it into a fresh one: the repeated requests must answer
// byte-identically to the original responses without any DP run.
func TestSnapshotRoundTripResultCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	treeText := smallTreeText(t)
	insertReq := InsertRequest{Tree: treeText, Algo: "wid"}
	yieldReq := YieldRequest{
		InsertRequest: InsertRequest{Tree: treeText, Algo: "wid"},
		MonteCarlo:    64,
		Seed:          3,
	}

	s1, ts1 := newTestServer(t, Config{Workers: 2})
	_, insertCold := postJSON(t, ts1.URL+"/v1/insert", insertReq)
	_, yieldCold := postJSON(t, ts1.URL+"/v1/yield", yieldReq)
	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 2})
	stats, err := s2.RestoreSnapshot(path)
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	if stats.Results != 2 || stats.Skipped != 0 {
		t.Fatalf("restore stats = %+v, want 2 results, 0 skipped", stats)
	}

	resp, warm := postJSON(t, ts2.URL+"/v1/insert", insertReq)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(warm, insertCold) {
		t.Errorf("restored insert repeat: status %d, bytes equal %t",
			resp.StatusCode, bytes.Equal(warm, insertCold))
	}
	resp, warm = postJSON(t, ts2.URL+"/v1/yield", yieldReq)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(warm, yieldCold) {
		t.Errorf("restored yield repeat: status %d, bytes equal %t",
			resp.StatusCode, bytes.Equal(warm, yieldCold))
	}
	if runs := pruningRuns(t, ts2.URL); runs != 0 {
		t.Errorf("restored server ran the DP %g times for cached repeats, want 0", runs)
	}

	// A server with the cache disabled restores the same snapshot
	// cleanly, dropping the result entries without counting them skipped.
	s3, _ := newTestServer(t, Config{Workers: 1, ResultCacheSize: -1})
	stats, err = s3.RestoreSnapshot(path)
	if err != nil {
		t.Fatalf("RestoreSnapshot (cache off): %v", err)
	}
	if stats.Results != 0 || stats.Skipped != 0 {
		t.Errorf("cache-off restore stats = %+v, want 0 results, 0 skipped", stats)
	}
}

// TestYieldStreamMatchesFixedSharded drives /v1/yield:stream to its full
// budget (mc_tol 0) and checks the final result against the plain
// endpoint's sharded sampler: same seed, same numbers — the adaptive
// stream is a bit-exact prefix (here: the whole) of the sharded one.
func TestYieldStreamMatchesFixedSharded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := YieldRequest{
		InsertRequest: InsertRequest{Tree: smallTreeText(t), Algo: "wid", Parallelism: 4},
		MonteCarlo:    320,
		Seed:          5,
	}
	respPlain, rawPlain := postJSON(t, ts.URL+"/v1/yield", req)
	if respPlain.StatusCode != http.StatusOK {
		t.Fatalf("plain yield status %d: %s", respPlain.StatusCode, rawPlain)
	}
	var plain YieldResult
	if err := json.Unmarshal(rawPlain, &plain); err != nil {
		t.Fatal(err)
	}

	payload, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/yield:stream", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q, want application/x-ndjson", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("stream emitted %d events, want >= 2 (progress + result)", len(events))
	}
	final := events[len(events)-1]
	if final.Type != "result" || final.Result == nil {
		t.Fatalf("final event = %+v, want a result", final)
	}
	sawProgress := false
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "progress" || ev.Progress == nil {
			t.Fatalf("non-progress event before the result: %+v", ev)
		}
		if ev.Progress.Samples%(req.MonteCarlo/16) != 0 {
			t.Errorf("progress at %d samples is not shard-aligned", ev.Progress.Samples)
		}
		sawProgress = true
	}
	if !sawProgress {
		t.Error("stream carried no progress events")
	}

	got, want := final.Result.MonteCarlo, plain.MonteCarlo
	if got == nil || want == nil {
		t.Fatalf("missing MC summary: stream %+v, plain %+v", got, want)
	}
	if got.Samples != want.Samples || got.MeanPS != want.MeanPS ||
		got.SigmaPS != want.SigmaPS || got.QuantileRAT != want.QuantileRAT {
		t.Errorf("streamed full-budget MC differs from sharded:\nstream: %+v\nplain:  %+v", got, want)
	}
	// Full budget burned: the stream reports the run as not converged.
	if got.Converged {
		t.Error("mc_tol 0 run reports converged")
	}
	if got.CIHalfWidthPS <= 0 {
		t.Error("streamed result missing the CI half-width")
	}

	// Streaming requires samples to stream: monte_carlo 0 answers a plain 400.
	bad, _ := json.Marshal(YieldRequest{InsertRequest: req.InsertRequest})
	respBad, err := http.Post(ts.URL+"/v1/yield:stream", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	respBad.Body.Close()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Errorf("stream without monte_carlo: status %d, want 400", respBad.StatusCode)
	}
}

// TestYieldAdaptiveEarlyStop exercises mc_tol on the plain endpoint: the
// run must stop at a shard boundary short of the cap, flag convergence,
// and report the CI half-width it stopped at.
func TestYieldAdaptiveEarlyStop(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := YieldRequest{
		InsertRequest: InsertRequest{Tree: smallTreeText(t), Algo: "wid"},
		MonteCarlo:    4096,
		Seed:          1,
		MCTol:         0.2,
	}
	resp, raw := postJSON(t, ts.URL+"/v1/yield", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out YieldResult
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	mc := out.MonteCarlo
	if mc == nil {
		t.Fatal("response missing the Monte-Carlo summary")
	}
	if !mc.Converged {
		t.Fatalf("adaptive run did not converge within %d samples: %+v", req.MonteCarlo, mc)
	}
	if mc.Samples >= req.MonteCarlo {
		t.Errorf("adaptive run burned the full budget (%d samples)", mc.Samples)
	}
	shard := req.MonteCarlo / 16
	if mc.Samples%shard != 0 {
		t.Errorf("stopped at %d samples, not a multiple of the %d-sample shard", mc.Samples, shard)
	}
	if mc.CIHalfWidthPS <= 0 {
		t.Error("converged run missing the CI half-width")
	}
}
