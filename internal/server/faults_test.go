package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPanicInJobIsolatedToRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	var arm atomic.Bool
	arm.Store(true)
	s.faults = &faultHooks{beforeJob: func(endpoint string) {
		if arm.Swap(false) {
			panic("injected DP crash")
		}
	}}

	req := InsertRequest{Bench: "p1", Algo: "nom"}
	resp, raw := postJSON(t, ts.URL+"/v1/insert", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request status = %d, want 500: %s", resp.StatusCode, raw)
	}
	var eres ErrorResult
	if err := json.Unmarshal(raw, &eres); err != nil || !strings.Contains(eres.Error, "panic") {
		t.Fatalf("500 body = %s (err %v), want a structured panic error", raw, err)
	}

	// The worker survived: the next request runs normally.
	resp, raw = postJSON(t, ts.URL+"/v1/insert", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d, want 200: %s", resp.StatusCode, raw)
	}

	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	panics := met["panics_recovered"].(map[string]any)
	if got := panics["/v1/insert"].(float64); got != 1 {
		t.Errorf("panics_recovered[/v1/insert] = %g, want 1", got)
	}
	// The panic was recovered at the job layer, not the worker backstop.
	if got := met["queue"].(map[string]any)["worker_panics"].(float64); got != 0 {
		t.Errorf("queue.worker_panics = %g, want 0", got)
	}
}

func TestBatchItemPanicIsolated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// Exactly one of the batch's jobs panics; which item draws it is
	// scheduling-dependent, and irrelevant — the point is that exactly one
	// item fails with a 500 while its siblings succeed.
	var calls atomic.Int64
	s.faults = &faultHooks{beforeJob: func(endpoint string) {
		if endpoint == "/v1/insert:batch" && calls.Add(1) == 2 {
			panic("injected batch-item crash")
		}
	}}

	breq := BatchRequest[InsertRequest]{Items: []InsertRequest{
		{Bench: "p1", Algo: "nom"},
		{Bench: "p2", Algo: "nom"},
		{Bench: "r1", Algo: "nom"},
	}}
	resp, raw := postJSON(t, ts.URL+"/v1/insert:batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status = %d, want 200: %s", resp.StatusCode, raw)
	}
	var out BatchResult[*InsertResult]
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Succeeded != 2 || out.Errors != 1 {
		t.Fatalf("succeeded/errors = %d/%d, want 2/1", out.Succeeded, out.Errors)
	}
	panicked := 0
	for _, item := range out.Items {
		switch item.Status {
		case http.StatusOK:
			if item.Result == nil {
				t.Errorf("item %d: 200 with nil result", item.Index)
			}
		case http.StatusInternalServerError:
			panicked++
			if !strings.Contains(item.Error, "panic") {
				t.Errorf("item %d: 500 error %q does not mention the panic", item.Index, item.Error)
			}
		default:
			t.Errorf("item %d: unexpected status %d (%s)", item.Index, item.Status, item.Error)
		}
	}
	if panicked != 1 {
		t.Fatalf("%d items answered 500, want exactly 1", panicked)
	}

	// Subsequent traffic is unaffected.
	resp, raw = postJSON(t, ts.URL+"/v1/insert", InsertRequest{Bench: "p1", Algo: "nom"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d, want 200: %s", resp.StatusCode, raw)
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	panics := met["panics_recovered"].(map[string]any)
	if got := panics["/v1/insert:batch"].(float64); got != 1 {
		t.Errorf("panics_recovered[/v1/insert:batch] = %g, want 1", got)
	}
}

func TestDrainRejectsNewWorkAndSnapshots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.snap")
	s, ts := newTestServer(t, Config{Workers: 1, SnapshotPath: path})

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.faults = &faultHooks{beforeJob: func(string) {
		started <- struct{}{}
		<-release
	}}

	// An in-flight batch rides through the drain.
	batchDone := make(chan *http.Response, 1)
	go func() {
		payload, _ := json.Marshal(BatchRequest[InsertRequest]{Items: []InsertRequest{
			{Bench: "p1", Algo: "nom"},
			{Bench: "p1", Algo: "nom"},
		}})
		resp, err := http.Post(ts.URL+"/v1/insert:batch", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Error(err)
			batchDone <- nil
			return
		}
		resp.Body.Close()
		batchDone <- resp
	}()
	<-started // first item is on the single worker

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, s.isDraining, "server entered the draining state")

	// New work is refused with 503 + Retry-After while draining.
	resp, raw := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Bench: "p1", Algo: "nom"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain status = %d, want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/insert:batch",
		BatchRequest[InsertRequest]{Items: []InsertRequest{{Bench: "p1", Algo: "nom"}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drain batch status = %d, want 503", resp.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/readyz", nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", r.StatusCode)
	}

	select {
	case <-closed:
		t.Fatal("Close returned while batch items were still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the batch finished")
	}
	if resp := <-batchDone; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight batch finished with %v, want 200", resp)
	}

	// Close wrote the final snapshot with the batch's tree in it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	var doc snapshotFile
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Entries) == 0 {
		t.Fatalf("final snapshot unusable (err %v, %d entries)", err, len(doc.Entries))
	}
}

func TestSheddingRejectsSweepKeepsInteractive(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:         1,
		QueueDepth:      1,
		SweepQueueDepth: 1,
		ShedAfter:       30 * time.Millisecond,
	})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.faults = &faultHooks{beforeJob: func(string) {
		started <- struct{}{}
		<-release
	}}

	// Hold the single worker, fill both class queues, then trip the
	// saturation mark with one refused submit.
	firstDone := make(chan int, 1)
	go func() {
		payload, _ := json.Marshal(InsertRequest{Bench: "p1", Algo: "nom"})
		resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Error(err)
			firstDone <- 0
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-started
	if !s.pool.trySubmit(func() { <-release }, classInteractive) ||
		!s.pool.trySubmit(func() { <-release }, classSweep) {
		t.Fatal("could not fill the class queues")
	}
	if s.pool.trySubmit(func() {}, classSweep) {
		t.Fatal("overfull submit unexpectedly accepted")
	}
	time.Sleep(2 * s.cfg.ShedAfter) // age the saturation episode past the window

	// Sweep-class work is now shed with 503 before touching the queue...
	// (Priority is not part of the fingerprint, so a distinct quantile
	// keeps the probe from coalescing onto the held identical request.)
	sweep := InsertRequest{Bench: "p1", Algo: "nom", Priority: "sweep", Quantile: 0.15}
	resp, raw := postJSON(t, ts.URL+"/v1/insert", sweep)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed sweep status = %d, want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 503 missing Retry-After")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/insert:batch",
		BatchRequest[InsertRequest]{Items: []InsertRequest{{Bench: "p1", Algo: "nom"}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("shed batch status = %d, want 503", resp.StatusCode)
	}
	// ...while interactive work keeps its normal admission path (the full
	// queue answers 429, not the shed gate's 503). Again quantile-distinct
	// from the held request so it reaches the queue instead of coalescing.
	resp, _ = postJSON(t, ts.URL+"/v1/insert", InsertRequest{Bench: "p1", Algo: "nom", Quantile: 0.25})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("interactive status under shed = %d, want 429", resp.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/readyz", nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while shedding = %d, want 503", r.StatusCode)
	}
	var met map[string]any
	getJSON(t, ts.URL+"/metrics", &met)
	if got := met["state"].(string); got != stateShedding {
		t.Errorf("metrics state = %q, want %q", got, stateShedding)
	}
	shed := met["shed"].(map[string]any)
	if got := shed["/v1/insert"].(float64); got < 1 {
		t.Errorf("shed[/v1/insert] = %g, want >= 1", got)
	}

	// Draining the backlog ends the episode: sweep work is admitted again.
	close(release)
	if st := <-firstDone; st != http.StatusOK {
		t.Fatalf("held request finished with %d", st)
	}
	waitFor(t, func() bool { return s.pool.depth() == 0 }, "queue drained")
	if r := getJSON(t, ts.URL+"/readyz", nil); r.StatusCode != http.StatusOK {
		t.Errorf("/readyz after drain = %d, want 200", r.StatusCode)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/insert", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("sweep after recovery = %d, want 200: %s", resp.StatusCode, raw)
	}
}

func TestReadyzReportsRestoring(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	s1, ts1 := newTestServer(t, Config{Workers: 1})
	resp, raw := postJSON(t, ts1.URL+"/v1/insert", InsertRequest{Bench: "p1", Algo: "nom"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", resp.StatusCode, raw)
	}
	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1})
	entered := make(chan struct{})
	hold := make(chan struct{})
	var once sync.Once
	s2.faults = &faultHooks{beforeRestoreEntry: func(kind, key string) {
		once.Do(func() { close(entered) })
		<-hold
	}}
	restored := make(chan RestoreStats, 1)
	s2.RestoreSnapshotAsync(path, func(stats RestoreStats, err error) {
		if err != nil {
			t.Errorf("async restore: %v", err)
		}
		restored <- stats
	})
	<-entered

	var body map[string]any
	if r := getJSON(t, ts2.URL+"/readyz", &body); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while restoring = %d, want 503", r.StatusCode)
	}
	if body["status"] != stateRestoring {
		t.Errorf("readyz status = %v, want %q", body["status"], stateRestoring)
	}
	// Requests racing the restore still work against the cold caches.
	resp, raw = postJSON(t, ts2.URL+"/v1/insert", InsertRequest{Bench: "p2", Algo: "nom"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("request during restore = %d: %s", resp.StatusCode, raw)
	}

	close(hold)
	stats := <-restored
	if stats.Trees != 1 {
		t.Errorf("restored trees = %d, want 1", stats.Trees)
	}
	waitFor(t, func() bool { return s2.readyState() == stateReady }, "server became ready")
	if r := getJSON(t, ts2.URL+"/readyz", nil); r.StatusCode != http.StatusOK {
		t.Errorf("/readyz after restore = %d, want 200", r.StatusCode)
	}
}
