package server

// Goroutine-leak regression tests for canceled mid-DP work: a client
// that disconnects during /v1/insert or mid-/v1/yield:stream must leave
// no goroutine behind and return every worker to the pool. Run under
// -race in CI; the assertions are on the pool's own gauges plus the
// process goroutine count, the same signals scripts/fleet.sh gates on.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"vabuf"
)

// treeTextSeed serializes a distinct small tree per seed.
func treeTextSeed(t *testing.T, seed int64) string {
	t.Helper()
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{
		Name: fmt.Sprintf("leak%d", seed), Sinks: 8, Seed: 100 + seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vabuf.WriteTree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// waitPoolIdle polls until the pool has no queued or in-flight jobs.
func waitPoolIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if s.pool.depth() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("worker pool never returned to idle: depth %d", s.pool.depth())
}

// waitGoroutines polls until the process goroutine count drops to the
// baseline plus slack (probe goroutines from the HTTP stack wind down
// asynchronously after CloseIdleConnections).
func waitGoroutines(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	n := 0
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Errorf("goroutines did not return to baseline: %d now, %d at start (+%d allowed)",
		n, baseline, slack)
}

func TestCanceledInsertReleasesWorkers(t *testing.T) {
	// Result caching off: a canceled run that slipped through to a 200
	// would otherwise answer later iterations from cache, without a job.
	s, ts := newTestServer(t, Config{Workers: 2, ResultCacheSize: -1})
	started := make(chan struct{}, 16)
	s.faults = &faultHooks{beforeJob: func(string) {
		select {
		case started <- struct{}{}:
		default:
		}
	}}
	client := &http.Client{}
	baseline := runtime.NumGoroutine()

	for i := 0; i < 4; i++ {
		// A distinct tree per iteration: identical requests would
		// coalesce instead of exercising the cancel path each time.
		payload, err := json.Marshal(InsertRequest{
			Tree: treeTextSeed(t, int64(i)), Algo: "wid", Quantile: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/insert", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := client.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
		// Cancel the moment the job lands on a worker: the DP is either
		// about to start or mid-run — exactly the leak-prone window.
		<-started
		cancel()
		<-done
	}

	waitPoolIdle(t, s)
	client.CloseIdleConnections()
	waitGoroutines(t, baseline, 4)
	if got := s.pool.panics.Load(); got != 0 {
		t.Errorf("worker panics = %d, want 0", got)
	}
}

func TestCanceledStreamReleasesWorkers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, ResultCacheSize: -1})
	client := &http.Client{}
	baseline := runtime.NumGoroutine()

	for i := 0; i < 3; i++ {
		payload, err := json.Marshal(YieldRequest{
			InsertRequest: InsertRequest{
				Tree: treeTextSeed(t, int64(10+i)), Algo: "wid"},
			// The full request cap with an unreachable tolerance: only
			// the client disconnect can end this run early.
			MonteCarlo: 1_000_000,
			MCTol:      1e-9,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v1/yield:stream", "application/json",
			bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d", resp.StatusCode)
		}
		// Read one NDJSON event so the run is demonstrably mid-stream,
		// then hang up without draining the rest.
		if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
			t.Fatalf("reading first stream event: %v", err)
		}
		resp.Body.Close()
	}

	waitPoolIdle(t, s)
	client.CloseIdleConnections()
	waitGoroutines(t, baseline, 4)
}
