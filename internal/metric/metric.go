// Package metric is the counter registry shared by the vabufd and vabufr
// daemons: a counter, a labelled counter, and a fixed-bucket millisecond
// histogram, plus Family for per-label sets of either. Every type is safe
// for concurrent use, ready at its zero value, and marshals itself to the
// JSON shape GET /metrics serves, so a daemon's snapshot places pointers
// to them straight into its document.
package metric

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// MarshalJSON renders the count as a JSON number.
func (c *Counter) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, c.Load(), 10), nil }

// Labelled counts events per label value: an endpoint, a backend URL, a
// status code.
type Labelled struct {
	mu sync.Mutex
	m  map[string]int64
}

// Inc adds one under label.
func (l *Labelled) Inc(label string) {
	l.mu.Lock()
	if l.m == nil {
		l.m = make(map[string]int64)
	}
	l.m[label]++
	l.mu.Unlock()
}

// Get returns the count under label (0 if never counted).
func (l *Labelled) Get(label string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m[label]
}

// Total returns the sum over every label.
func (l *Labelled) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, v := range l.m {
		n += v
	}
	return n
}

// MarshalJSON renders the counts as a JSON object keyed by label.
func (l *Labelled) MarshalJSON() ([]byte, error) {
	l.mu.Lock()
	cp := make(map[string]int64, len(l.m))
	for k, v := range l.m {
		cp[k] = v
	}
	l.mu.Unlock()
	return json.Marshal(cp)
}

// bucketsMS are the upper bounds (milliseconds) of the histogram buckets;
// a final +Inf bucket catches the rest.
var bucketsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram is a fixed-bucket latency histogram in milliseconds.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sumMS   float64
	buckets [len(bucketsMS) + 1]int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(bucketsMS) && ms > bucketsMS[i] {
		i++
	}
	h.mu.Lock()
	h.count++
	h.sumMS += ms
	h.buckets[i]++
	h.mu.Unlock()
}

// MarshalJSON renders {"count", "sum_ms", "buckets": {"le_<ms>", "inf"}}.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets := make(map[string]int64, len(h.buckets))
	for i, ub := range bucketsMS {
		buckets[fmt.Sprintf("le_%g", ub)] = h.buckets[i]
	}
	buckets["inf"] = h.buckets[len(bucketsMS)]
	return json.Marshal(map[string]any{"count": h.count, "sum_ms": h.sumMS, "buckets": buckets})
}

// Family is a set of metrics of one type keyed by label, each created on
// first use: per-endpoint status counts, per-configuration histograms.
type Family[T any] struct {
	mu sync.Mutex
	m  map[string]*T
}

// With returns the member under label, creating it if needed.
func (f *Family[T]) With(label string) *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = make(map[string]*T)
	}
	v := f.m[label]
	if v == nil {
		v = new(T)
		f.m[label] = v
	}
	return v
}

// MarshalJSON renders the members as a JSON object keyed by label.
func (f *Family[T]) MarshalJSON() ([]byte, error) {
	f.mu.Lock()
	cp := make(map[string]*T, len(f.m))
	for k, v := range f.m {
		cp[k] = v
	}
	f.mu.Unlock()
	return json.Marshal(cp)
}

// Requests counts answered requests by endpoint and HTTP status, rendered
// as {"<endpoint>": {"<status>": n}}.
type Requests struct{ Family[Labelled] }

// Record counts one answered request.
func (r *Requests) Record(endpoint string, status int) {
	r.With(endpoint).Inc(strconv.Itoa(status))
}
