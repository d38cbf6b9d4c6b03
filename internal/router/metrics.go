package router

import (
	"runtime"
	"time"

	"vabuf/internal/metric"
)

// rmetrics is the registry behind the router's GET /metrics. Per-backend
// counters are keyed by backend URL, never by ring index, so a membership
// change renumbers nothing: a backend that leaves and rejoins keeps its
// history, and in-flight requests recording against a just-removed
// backend land harmlessly in its retained entry.
type rmetrics struct {
	start time.Time

	requests metric.Requests // endpoint -> status -> count
	// Per-backend counters. proxied counts requests (or sub-batches) a
	// backend answered, failovers requests it owned but another served,
	// lookupHits synchronous peer lookups it answered. attempts counts
	// every outbound request the router sent it — first tries, failover
	// hops, hedges, peer lookups alike; its total is the fleet's true
	// amplification numerator: injected faults that never reach a
	// backend's own mux still show up here.
	proxied, failovers, lookupHits, attempts metric.Labelled
	// fanout histograms how many distinct backends each batch request
	// scattered to (label = owner-group count).
	fanout metric.Labelled
	// ringRebuilds counts ring constructions: 1 at boot, +1 per
	// membership reload that changed the member set.
	ringRebuilds metric.Counter
	// Synchronous peer-lookup outcomes besides hits: misses fell through
	// to a normal (cold) proxy, errors are transport failures or refusals.
	lookupMisses metric.Counter
	lookupErrors metric.Counter
	// Resilience counters: hedged duplicates sent / won, manufactured
	// requests denied by a dry retry budget, and requests answered 504
	// locally because their propagated deadline was already spent.
	hedges           metric.Counter
	hedgeWins        metric.Counter
	budgetExhausted  metric.Counter
	deadlineRejected metric.Labelled // endpoint -> local 504s
}

func newRMetrics() *rmetrics { return &rmetrics{start: time.Now()} }

// snapshot assembles the /metrics document over the *current*
// membership. Probe state is merged per backend so one document answers
// "who is down, who serves what, who rescued which lookups".
func (m *rmetrics) snapshot(mem *membership, prober *prober,
	ready bool, breakerOpen int, breakerOpens int64) map[string]any {
	bs := make([]map[string]any, len(mem.backends))
	for i, url := range mem.backends {
		doc := prober.stateSnapshot(url)
		doc["url"] = url
		doc["proxied"] = m.proxied.Get(url)
		doc["failovers"] = m.failovers.Get(url)
		doc["lookup_hits"] = m.lookupHits.Get(url)
		doc["attempts"] = m.attempts.Get(url)
		bs[i] = doc
	}
	state := "ready"
	if !ready {
		state = "no_healthy_backends"
	}
	return map[string]any{
		"uptime_seconds": time.Since(m.start).Seconds(),
		"state":          state,
		"goroutines":     runtime.NumGoroutine(),
		"requests":       &m.requests,
		"backends":       bs,
		"ring": map[string]any{
			"backends": len(mem.backends),
			"points":   len(mem.ring.points),
			"rebuilds": &m.ringRebuilds,
			"members":  append([]string(nil), mem.backends...),
		},
		// scatter_fanout: how many owner groups each batch split into —
		// "1" means the whole batch shared one owner (perfect affinity).
		"scatter_fanout": &m.fanout,
		// lookups: synchronous peer-cache probes at a key's previous
		// owner before a new/failover owner computes it cold.
		"lookups": map[string]any{
			"hits":   m.lookupHits.Total(),
			"misses": &m.lookupMisses,
			"errors": &m.lookupErrors,
		},
		// resilience: the retry-storm dials. attempts_total over the sum
		// of client requests is the fleet's amplification factor.
		"resilience": map[string]any{
			"hedges":                 &m.hedges,
			"hedge_wins":             &m.hedgeWins,
			"retry_budget_exhausted": &m.budgetExhausted,
			"breaker_open":           breakerOpen,
			"breaker_opens":          breakerOpens,
			"attempts_total":         m.attempts.Total(),
		},
		// deadline: requests answered 504 by the router itself because
		// their propagated budget was already spent on arrival.
		"deadline": map[string]any{
			"rejected":       &m.deadlineRejected,
			"rejected_total": m.deadlineRejected.Total(),
		},
	}
}
