package metric

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// render marshals v and decodes it back into a generic JSON value.
func render(t *testing.T, v any) any {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCounterAndLabelled(t *testing.T) {
	var c Counter
	var l Labelled
	if got := render(t, &l).(map[string]any); len(got) != 0 {
		t.Errorf("empty Labelled renders %v, want {}", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
				l.Inc("a")
			}
			l.Inc("b")
		}()
	}
	wg.Wait()
	if c.Load() != 800 || render(t, &c).(float64) != 800 {
		t.Errorf("counter = %d, want 800", c.Load())
	}
	if l.Get("a") != 800 || l.Get("b") != 8 || l.Get("missing") != 0 || l.Total() != 808 {
		t.Errorf("labelled a=%d b=%d total=%d", l.Get("a"), l.Get("b"), l.Total())
	}
	doc := render(t, &l).(map[string]any)
	if doc["a"].(float64) != 800 || doc["b"].(float64) != 8 {
		t.Errorf("labelled renders %v", doc)
	}
}

// TestHistogramShape pins the /metrics histogram document: count,
// sum_ms, and le_<ms> buckets with inclusive upper bounds plus inf.
func TestHistogramShape(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond, time.Minute} {
		h.Observe(d)
	}
	doc := render(t, &h).(map[string]any)
	if doc["count"].(float64) != 4 {
		t.Errorf("count = %v, want 4", doc["count"])
	}
	if got, want := doc["sum_ms"].(float64), 60004.0; got != want {
		t.Errorf("sum_ms = %v, want %v", got, want)
	}
	buckets := doc["buckets"].(map[string]any)
	if len(buckets) != len(bucketsMS)+1 {
		t.Errorf("%d buckets, want %d", len(buckets), len(bucketsMS)+1)
	}
	for k, want := range map[string]float64{"le_1": 2, "le_2": 0, "le_5": 1, "le_10000": 0, "inf": 1} {
		if got := buckets[k].(float64); got != want {
			t.Errorf("bucket %s = %v, want %v", k, got, want)
		}
	}
}

func TestRequestsAndFamily(t *testing.T) {
	var r Requests
	r.Record("/v1/insert", 200)
	r.Record("/v1/insert", 200)
	r.Record("/v1/insert", 504)
	r.Record("/metrics", 200)
	doc := render(t, &r).(map[string]any)
	ins := doc["/v1/insert"].(map[string]any)
	if ins["200"].(float64) != 2 || ins["504"].(float64) != 1 {
		t.Errorf("/v1/insert renders %v", ins)
	}
	if doc["/metrics"].(map[string]any)["200"].(float64) != 1 {
		t.Errorf("requests render %v", doc)
	}

	var f Family[Histogram]
	if f.With("wid/2P") != f.With("wid/2P") {
		t.Error("With created a second member for one label")
	}
	f.With("wid/2P").Observe(time.Millisecond)
	hist := render(t, &f).(map[string]any)["wid/2P"].(map[string]any)
	if hist["count"].(float64) != 1 {
		t.Errorf("family member renders %v", hist)
	}
}
