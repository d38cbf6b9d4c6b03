package server

import (
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"vabuf"
	"vabuf/internal/metric"
)

// metrics is the registry behind GET /metrics. Its members are the
// shared metric types; handlers count on them directly.
type metrics struct {
	start time.Time

	requests metric.Requests                 // endpoint -> status -> count
	latency  metric.Family[metric.Histogram] // "algo/rule" -> run latency
	panics   metric.Labelled                 // endpoint -> panics recovered in its jobs
	shed     metric.Labelled                 // endpoint -> sweep submissions shed early
	// coalesced counts requests answered by joining an identical
	// in-flight request (single-flight waiters), per endpoint. Batch
	// endpoints count intra-batch duplicate items here too.
	coalesced metric.Labelled
	snap      snapshotCounters
	// peerLookups counts /v1/cache/lookup probes: hits served a cached
	// result to a peer router, misses cover 404s plus refused lookups
	// (epoch mismatch or malformed request).
	peerLookups struct {
		Hits   metric.Counter `json:"hits"`
		Misses metric.Counter `json:"misses"`
	}
	// deadlineRejected counts requests refused with 504 at admission
	// because their propagated Vabuf-Deadline-Ms budget was already spent
	// — they never touched a cache or the queue. deadlineExpired counts
	// queued jobs dropped at dequeue because their deadline passed (or
	// their client vanished) while they waited. Both keyed by endpoint.
	deadlineRejected metric.Labelled
	deadlineExpired  metric.Labelled

	// pruning accumulates core.Result.Stats across every successful run —
	// the service-lifetime view of the paper's Table 2 counters.
	mu      sync.Mutex
	runs    int64
	pruning vabuf.Stats
}

// snapshotCounters tracks the cache snapshot/warm-restart machinery.
type snapshotCounters struct {
	RestoredTrees   metric.Counter `json:"restored_trees"`
	RestoredModels  metric.Counter `json:"restored_models"`
	RestoredResults metric.Counter `json:"restored_results"`
	Skipped         metric.Counter `json:"skipped"` // corrupt/unrecoverable entries dropped on restore
	Saves           metric.Counter `json:"saves"`
	SaveErrors      metric.Counter `json:"save_errors"`
}

func newMetrics() *metrics { return &metrics{start: time.Now()} }

// panicRecovered records a panic recovered inside a pool job submitted
// by endpoint, logs the stack, and returns the error the request (or
// batch item) answers as its structured 500. The worker that ran the
// job survives and returns to the pool.
func (m *metrics) panicRecovered(endpoint string, v any) error {
	m.panics.Inc(endpoint)
	log.Printf("%s: recovered panic in job: %v\n%s", endpoint, v, debug.Stack())
	return fmt.Errorf("internal panic in insertion job (recovered): %v", v)
}

// recordRun records one successful insertion run: its latency under the
// algo/rule key and its work counters.
func (m *metrics) recordRun(algo, rule string, elapsed time.Duration, res *vabuf.Result) {
	m.latency.With(algo + "/" + rule).Observe(elapsed)
	m.mu.Lock()
	m.runs++
	m.pruning.Add(res.Stats)
	m.mu.Unlock()
}

func cacheSnapshot(c *lruCache, capacity int) map[string]any {
	hits, misses, size := c.stats()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return map[string]any{
		"hits":     hits,
		"misses":   misses,
		"size":     size,
		"capacity": capacity,
		"hit_rate": rate,
	}
}

// subtreeCacheSnapshot renders the subtree DP-frontier cache's lifetime
// counters for the caches section of /metrics.
func subtreeCacheSnapshot(c *vabuf.SubtreeCache) map[string]any {
	st := c.Stats()
	rate := 0.0
	if st.Hits+st.Misses > 0 {
		rate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	return map[string]any{
		"hits":      st.Hits,
		"misses":    st.Misses,
		"stores":    st.Stores,
		"evictions": st.Evictions,
		"entries":   st.Entries,
		"bytes":     st.Bytes,
		"max_bytes": st.MaxBytes,
		"hit_rate":  rate,
	}
}

// snapshot assembles the full /metrics document. results may be nil
// (result cache disabled), as may subtrees (subtree cache disabled);
// state is the current readiness reason (see Server.readyState).
func (m *metrics) snapshot(pool *workerPool, trees, models, results *lruCache,
	subtrees *vabuf.SubtreeCache,
	treeCap, modelCap, resultCap, inflight int, state string) map[string]any {
	m.mu.Lock()
	pruning := struct {
		Runs int64 `json:"runs"`
		vabuf.Stats
	}{m.runs, m.pruning}
	m.mu.Unlock()

	doc := map[string]any{
		"uptime_seconds": time.Since(m.start).Seconds(),
		"state":          state,
		// goroutines is the live goroutine count — fleet.sh and chaos.sh
		// compare it across a run to catch leaks in the serve path.
		"goroutines": runtime.NumGoroutine(),
		"requests":   &m.requests,
		"latency_ms": &m.latency,
		// deadline tracks Vabuf-Deadline-Ms enforcement: rejected counts
		// 504s at admission (budget spent before any work), expired counts
		// queued jobs dropped at dequeue — both per endpoint plus totals,
		// so a soak can assert doomed work never reached a DP worker.
		"deadline": map[string]any{
			"rejected":       &m.deadlineRejected,
			"expired":        &m.deadlineExpired,
			"rejected_total": m.deadlineRejected.Total(),
			"expired_total":  m.deadlineExpired.Total(),
		},
		// panics_recovered counts jobs whose panic was converted into a
		// structured 500 for that request/item, keyed by the endpoint
		// that submitted them; the worker always survives.
		"panics_recovered": &m.panics,
		// shed counts sweep-class submissions rejected early (503) while
		// the queue was saturated past -shed-after.
		"shed": &m.shed,
		// snapshot tracks cache persistence: restore/skip counts from
		// warm restarts plus save attempts and failures.
		"snapshot": &m.snap,
		// peer_lookups tracks /v1/cache/lookup: synchronous cache probes
		// from a router rescuing a moved key's result, hits vs misses.
		"peer_lookups": &m.peerLookups,
		// depth/capacity/rejected keep their pre-priority-queue meaning
		// (existing dashboards); "classes" splits them per class with
		// queue-wait latency histograms.
		"queue": map[string]any{
			"depth":         pool.depth(),
			"capacity":      pool.capacity(),
			"workers":       pool.workers,
			"rejected":      pool.rejectedTotal(),
			"sweep_every":   pool.sweepEvery,
			"worker_panics": &pool.panics,
			"classes":       pool.classSnapshot(),
		},
		"pruning": pruning,
	}
	caches := map[string]any{
		"tree":  cacheSnapshot(trees, treeCap),
		"model": cacheSnapshot(models, modelCap),
	}
	if results != nil {
		caches["result"] = cacheSnapshot(results, resultCap)
	}
	if subtrees != nil {
		caches["subtree"] = subtreeCacheSnapshot(subtrees)
	}
	doc["caches"] = caches
	// coalesced counts requests answered by an identical in-flight or
	// intra-batch sibling computation; inflight is the current number of
	// active single-flight leaders.
	doc["coalescing"] = map[string]any{
		"coalesced": &m.coalesced,
		"inflight":  inflight,
	}
	return doc
}
