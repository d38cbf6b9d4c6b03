package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent indexes the span that caused this one (-1 for an operation's
// root span).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// reset drops every span, so set-up repeats leave none behind.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// opDurations sums, per operation, the durations of the spans named name.
func (t *tracer) opDurations(name string) map[int64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out[s.Op] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// write stores the spans as JSON lines under path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span context crosses process-style boundaries as two request headers.
const (
	hdrOp     = "Perfbench-Op"
	hdrParent = "Perfbench-Parent"
)

type spanCtxKey struct{}

// spanRef names the span an outbound call belongs to.
type spanRef struct {
	op   int64
	span int
}

// tracedHandler wraps a layer's http.Handler in a span named name, whose
// parent comes from the request headers. The span rides in the request
// context so tracedTransport can hand it to the next hop.
func tracedHandler(t *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err1 := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, err2 := strconv.Atoi(r.Header.Get(hdrParent))
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin(name, op, parent)
		ctx := context.WithValue(r.Context(), spanCtxKey{}, spanRef{op, id})
		h.ServeHTTP(w, r.WithContext(ctx))
		t.end(id)
	})
}

// tracedTransport stamps the span headers on outbound requests made on
// behalf of a traced inbound request (the router's proxy calls).
type tracedTransport struct{ base http.RoundTripper }

func (tt tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanCtxKey{}).(spanRef)
	if !ok {
		return tt.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	setSpanHeaders(r.Header, ref.op, ref.span)
	return tt.base.RoundTrip(r)
}

func setSpanHeaders(h http.Header, op int64, parent int) {
	h.Set(hdrOp, strconv.FormatInt(op, 10))
	h.Set(hdrParent, strconv.Itoa(parent))
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
}

// perLayer lists every per-layer metric in print order. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []layerMetric{
	{"router.self_ms_p50", "ms"},
	{"router.attempts_per_req", "count"},
	{"router.owner_affinity", "ratio"},
	{"server.self_ms_p50", "ms"},
	{"server.queue_wait_ms_p90", "ms"},
	{"server.result_hit_ratio", "ratio"},
	{"server.coalesced_per_req", "count"},
	{"server.tree_hit_ratio", "ratio"},
	{"server.model_hit_ratio", "ratio"},
	{"server.subtree_hit_ratio", "ratio"},
	{"server.request_kb", "KB"},
	{"core.dp_ms_p50", "ms"},
	{"core.workers", "count"},
	{"core.generated_per_op", "count"},
	{"core.pruned_per_op", "count"},
	{"core.prune_ratio", "ratio"},
	{"core.merges_per_op", "count"},
	{"core.hull_skipped_per_op", "count"},
	{"core.hull_fallbacks_per_op", "count"},
	{"core.peak_list", "count"},
	{"core.arena_used_mb_per_op", "MB"},
	{"variation.model_build_ms", "ms"},
	{"variation.arena_terms_per_op", "count"},
	{"yield.eval_ms_p50", "ms"},
	{"yield.mc_ms_p50", "ms"},
	{"yield.mc_samples_per_op", "count"},
	{"yield.mc_us_per_sample", "us"},
	{"trace.ops_per_s", "1/s"},
	{"ladder.lib_cold_ms", "ms"},
	{"ladder.handler_cold_ms", "ms"},
	{"ladder.http_cold_ms", "ms"},
	{"ladder.router_cold_ms", "ms"},
	{"ladder.lib_warm_ms", "ms"},
	{"ladder.handler_warm_ms", "ms"},
	{"ladder.http_warm_ms", "ms"},
	{"ladder.router_warm_ms", "ms"},
}

// durationsMS converts per-operation durations to milliseconds.
func durationsMS(m map[int64]time.Duration) []float64 {
	out := make([]float64, 0, len(m))
	for _, d := range m {
		out = append(out, ms(d))
	}
	return out
}
