package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestDeadlineHeaderParsing(t *testing.T) {
	h := make(http.Header)
	if _, ok := DeadlineFromHeader(h); ok {
		t.Error("absent header parsed as a deadline")
	}
	h.Set(DeadlineHeader, "garbage")
	if _, ok := DeadlineFromHeader(h); ok {
		t.Error("malformed header parsed as a deadline")
	}
	h.Set(DeadlineHeader, "250")
	if d, ok := DeadlineFromHeader(h); !ok || d != 250*time.Millisecond {
		t.Errorf("250 parsed as (%v, %v), want (250ms, true)", d, ok)
	}
	h.Set(DeadlineHeader, "0")
	if d, ok := DeadlineFromHeader(h); !ok || d > 0 {
		t.Errorf("0 parsed as (%v, %v), want spent deadline", d, ok)
	}
	// Budgets past time.Duration's range clamp instead of wrapping to a
	// spent (negative) or boundless (positive) deadline.
	for _, c := range []struct {
		header string
		want   time.Duration
	}{
		{"10000000000000", math.MaxInt64},
		{"9223372036854775807", math.MaxInt64},
		{"-10000000000000", math.MinInt64},
		{"-9223372036854775808", math.MinInt64},
		{"9223372036854", 9223372036854 * time.Millisecond},
	} {
		h.Set(DeadlineHeader, c.header)
		if d, ok := DeadlineFromHeader(h); !ok || d != c.want {
			t.Errorf("%s parsed as (%v, %v), want (%v, true)", c.header, d, ok, c.want)
		}
	}

	h = make(http.Header)
	SetDeadlineHeader(h, context.Background())
	if h.Get(DeadlineHeader) != "" {
		t.Error("SetDeadlineHeader stamped a context without a deadline")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	SetDeadlineHeader(h, ctx)
	if d, ok := DeadlineFromHeader(h); !ok || d <= 0 || d > time.Second {
		t.Errorf("round-tripped deadline = (%v, %v)", d, ok)
	}
}

// FuzzDeadlineHeader: whenever a Vabuf-Deadline-Ms value parses, the
// budget it yields has the sign of the header's value — a huge budget
// never wraps into a spent one, nor a spent one into a live one.
func FuzzDeadlineHeader(f *testing.F) {
	for _, v := range []string{"0", "250", "-1", "garbage", "10000000000000",
		"9223372036854775807", "-9223372036854775808", "+5", "007"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		h := make(http.Header)
		h.Set(DeadlineHeader, v)
		d, ok := DeadlineFromHeader(h)
		if !ok {
			return
		}
		ms, err := strconv.ParseInt(h.Get(DeadlineHeader), 10, 64)
		if err != nil {
			t.Fatalf("%q parsed as %v but is not an integer: %v", v, d, err)
		}
		if sign(int64(d)) != sign(ms) {
			t.Fatalf("%q (%d ms) parsed as %v: sign flipped", v, ms, d)
		}
	})
}

func sign(x int64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// postDeadline posts body with a Vabuf-Deadline-Ms header.
func postDeadline(t *testing.T, url, ms string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, ms)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// metricsSection fetches /metrics and returns one top-level section.
func metricsSection(t *testing.T, url, section string) map[string]any {
	t.Helper()
	var met map[string]any
	getJSON(t, url+"/metrics", &met)
	sec, ok := met[section].(map[string]any)
	if !ok {
		t.Fatalf("/metrics has no %q section", section)
	}
	return sec
}

// TestSpentDeadlineRejectedAtAdmission: a request arriving with its
// budget already spent is answered 504 before touching the queue — the
// acceptance criterion that an expired request never reaches a worker.
func TestSpentDeadlineRejectedAtAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ran := make(chan struct{}, 4)
	s.faults = &faultHooks{beforeJob: func(string) { ran <- struct{}{} }}

	for _, ep := range []string{"/v1/insert", "/v1/yield", "/v1/yield:stream"} {
		resp, raw := postDeadline(t, ts.URL+ep, "0",
			InsertRequest{Bench: "p1", Algo: "nom"})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s with spent deadline: status %d (%s), want 504",
				ep, resp.StatusCode, raw)
		}
	}
	select {
	case <-ran:
		t.Fatal("a spent-deadline request reached a DP worker")
	default:
	}
	dl := metricsSection(t, ts.URL, "deadline")
	if got, _ := dl["rejected_total"].(float64); got != 3 {
		t.Errorf("deadline.rejected_total = %v, want 3", got)
	}
	if got, _ := dl["expired_total"].(float64); got != 0 {
		t.Errorf("deadline.expired_total = %v, want 0", got)
	}
}

// TestDeadlineExpiredWhileQueued: a job whose budget runs out while it
// waits behind a busy worker is dropped at dequeue — counted as expired,
// never run.
func TestDeadlineExpiredWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failing assertion must still free the worker
	var once sync.Once
	started := make(chan struct{})
	s.faults = &faultHooks{beforeJob: func(string) {
		once.Do(func() { close(started) })
		<-release
	}}

	// Occupy the lone worker.
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		payload, _ := json.Marshal(InsertRequest{Bench: "p1", Algo: "nom"})
		resp, err := http.Post(ts.URL+"/v1/insert", "application/json",
			bytes.NewReader(payload))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started

	// This one queues behind the blocker and its 60ms budget dies there.
	// A different tree than the blocker's: an identical request would
	// coalesce onto the in-flight run instead of queueing.
	resp, raw := postDeadline(t, ts.URL+"/v1/insert", "60",
		InsertRequest{Tree: smallTreeText(t), Algo: "nom"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline request: status %d (%s), want 504",
			resp.StatusCode, raw)
	}

	unblock()
	<-blockerDone
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.expiredTotal() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.pool.expiredTotal(); got != 1 {
		t.Errorf("pool expired total = %d, want 1", got)
	}
	dl := metricsSection(t, ts.URL, "deadline")
	if got, _ := dl["expired_total"].(float64); got != 1 {
		t.Errorf("deadline.expired_total = %v, want 1", got)
	}
}

// TestQueueWaitCountsRejections: the queue-wait histogram counts every
// admission outcome, including refused submissions (observed as 0 wait),
// so overload is visible in the histogram itself.
func TestQueueWaitCountsRejections(t *testing.T) {
	p := newWorkerPool(1, 0, 0, 1) // zero queue depth: every submit refused
	defer p.close()
	for i := 0; i < 3; i++ {
		if p.trySubmit(func() {}, classInteractive) {
			t.Fatal("submit into a zero-depth queue succeeded")
		}
	}
	// Render the block as /metrics does: the histogram marshals itself.
	raw, err := json.Marshal(p.classSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	inter := snap["interactive"]
	wait := inter["wait_ms"].(map[string]any)
	if got := wait["count"].(float64); got != 3 {
		t.Errorf("wait histogram count = %v, want 3 (rejections counted)", got)
	}
	if got := inter["rejected"].(float64); got != 3 {
		t.Errorf("rejected = %v, want 3", got)
	}
}

// TestBatchItemDeadlineExpiresMidRun: a batch item whose propagated
// budget runs out after dequeue — here while the job is held before its
// DP starts — answers 504 like the single-request endpoints, not 499:
// the run context's error, not the endpoint, decides timeout vs cancel.
func TestBatchItemDeadlineExpiresMidRun(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.faults = &faultHooks{beforeJob: func(string) { time.Sleep(150 * time.Millisecond) }}
	item := InsertRequest{Bench: "p1", Algo: "nom"}
	cases := []struct {
		endpoint string
		body     any
	}{
		{"/v1/insert:batch", BatchRequest[InsertRequest]{Items: []InsertRequest{item}}},
		{"/v1/yield:batch", BatchRequest[YieldRequest]{Items: []YieldRequest{{InsertRequest: item}}}},
	}
	for _, c := range cases {
		resp, raw := postDeadline(t, ts.URL+c.endpoint, "60", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch status %d (%s), want 200", c.endpoint, resp.StatusCode, raw)
		}
		var out struct {
			Items []struct {
				Status int    `json:"status"`
				Error  string `json:"error"`
			} `json:"items"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Items) != 1 || out.Items[0].Status != http.StatusGatewayTimeout {
			t.Errorf("%s: items %+v, want one 504", c.endpoint, out.Items)
		}
	}
}
