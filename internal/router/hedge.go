package router

// Hedged requests. Tail latency on the single-request endpoints is
// dominated by the occasional slow backend — a GC pause, a queue blip, a
// chaos-injected stall. Since insert and yield are idempotent pure
// computations (and the backends coalesce identical in-flight requests),
// the router may safely send a second copy of a request that is taking
// suspiciously long and serve whichever answer lands first. "Suspiciously
// long" adapts to the observed traffic: the hedge fires at the p95 of
// recent successful proxy latencies, floored by the configured
// HedgeAfter, so hedges stay rare (~5% of requests by construction) and
// never trigger on a uniformly slow workload profile. The duplicate
// spends a retry-budget token like any other manufactured request, and
// the losing arm is canceled the moment the winner commits.

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// latencyWindow is the ring-buffer size of the hedge latency tracker.
const latencyWindow = 128

// latencyMinSamples is how many observations p95 needs before it trusts
// itself; below it the hedge delay falls back to the configured floor.
const latencyMinSamples = 16

// latencyTracker keeps a sliding window of successful proxy latencies
// and answers their p95 — the adaptive half of the hedge trigger.
type latencyTracker struct {
	mu      sync.Mutex
	samples [latencyWindow]time.Duration
	n       int // total observations (ring index = n % latencyWindow)
}

func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.samples[t.n%latencyWindow] = d
	t.n++
	t.mu.Unlock()
}

// p95 returns the 95th-percentile latency of the window, or 0 until
// enough samples have accrued.
func (t *latencyTracker) p95() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < latencyMinSamples {
		return 0
	}
	size := t.n
	if size > latencyWindow {
		size = latencyWindow
	}
	sorted := make([]time.Duration, size)
	copy(sorted, t.samples[:size])
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (size*95+99)/100 - 1 // ⌈0.95·size⌉ - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// hedgeDelay is the adaptive hedge trigger: the observed p95, floored by
// the configured HedgeAfter so a cold tracker (or an unusually fast
// window) cannot make hedging aggressive.
func (rt *Router) hedgeDelay() time.Duration {
	d := rt.lat.p95()
	if d < rt.cfg.HedgeAfter {
		d = rt.cfg.HedgeAfter
	}
	return d
}

// retryable5xx reports a status worth retrying on another backend: the
// backend accepted the request and broke on it. 503/429 are saturation
// (handled separately), 504 is the request's own deadline expiring —
// retrying either elsewhere cannot help.
func retryable5xx(status int) bool {
	return status == http.StatusInternalServerError || status == http.StatusBadGateway
}

// armResult is the outcome of one hedge arm.
type armResult struct {
	att       *attempt
	backend   string
	secondary bool
}

// tryHedged serves one single-endpoint request with hedging: the primary
// goes out immediately; if no answer lands within hedgeDelay, a budgeted
// duplicate goes to the next usable backend and first conclusive answer
// wins, the loser canceled. Both arms failing falls back to the normal
// budgeted walk over the remaining candidates. The contract mirrors
// tryBackends: (served, saturated-fallback).
func (rt *Router) tryHedged(ctx context.Context, order []string, path string, payload []byte) (served, sat *attempt) {
	var cands []string
	for _, b := range order {
		if rt.prober.healthy(b) && !rt.breaker.isOpen(b) {
			cands = append(cands, b)
		}
	}
	if len(cands) < 2 {
		// Nothing to hedge against; the plain walk handles the
		// none-healthy fallback too.
		return rt.tryBackends(ctx, order, path, payload)
	}
	primary, secondary := cands[0], cands[1]

	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	// Buffered to both arms' capacity: a losing arm finishing after the
	// winner returns parks its result here and its goroutine exits.
	results := make(chan armResult, 2)

	arm := func(actx context.Context, b string, sec bool) {
		rt.met.attempts.Inc(b)
		t0 := time.Now()
		att, err := rt.post(actx, b, path, payload)
		if err != nil {
			// A canceled arm (winner landed, or the client went away) is
			// not backend evidence — only genuine faults mark it down.
			if actx.Err() == nil && ctx.Err() == nil {
				rt.prober.noteProxyError(b, err)
				rt.breaker.failure(b)
			}
			results <- armResult{backend: b, secondary: sec}
			return
		}
		switch {
		case saturated(att.status):
			// Saturation is back-pressure, not failure.
		case retryable5xx(att.status):
			rt.breaker.failure(b)
		default:
			rt.breaker.success(b)
			rt.lat.observe(time.Since(t0))
		}
		results <- armResult{att: att, backend: b, secondary: sec}
	}

	rt.budget.credit(primary)
	go arm(pctx, primary, false)
	timer := time.NewTimer(rt.hedgeDelay())
	defer timer.Stop()
	pending, hedged := 1, false
	var failed *attempt
	for pending > 0 {
		select {
		case <-timer.C:
			if !hedged && rt.spendRetry(secondary) {
				hedged = true
				pending++
				rt.met.hedges.Inc()
				go arm(sctx, secondary, true)
			}
		case res := <-results:
			pending--
			switch {
			case res.att == nil:
				// transport failure; fall through to the next arm/walk
			case saturated(res.att.status):
				sat = res.att
			case retryable5xx(res.att.status):
				failed = res.att
			default:
				if res.secondary {
					rt.met.hedgeWins.Inc()
				}
				rt.met.proxied.Inc(res.backend)
				pcancel()
				scancel()
				return res.att, sat
			}
		case <-ctx.Done():
			return nil, sat
		}
	}
	// Every launched arm failed conclusively. Keep walking the untouched
	// candidates under the normal budget rules before surfacing the
	// failure the hedge already has in hand. When the primary died before
	// the hedge timer ever fired, the secondary was never launched — it
	// is still untouched and leads the fallback walk.
	rest := cands[2:]
	if !hedged {
		rest = cands[1:]
	}
	if len(rest) > 0 {
		if served, sat2 := rt.tryBackends(ctx, rest, path, payload); served != nil {
			return served, sat
		} else if sat2 != nil {
			sat = sat2
		}
	}
	if failed != nil {
		return failed, sat
	}
	return nil, sat
}
