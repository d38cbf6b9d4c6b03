package router

// Backend state. One state machine per backend answers the router's one
// routing question — may this backend take traffic? — from two kinds of
// evidence arriving on two cadences.
//
// Probes. A poll loop per backend hits GET /readyz on a jittered
// interval (so a fleet of routers never probes in lockstep) and applies
// hysteresis: FailAfter consecutive failures mark a backend down,
// RecoverAfter consecutive successes bring it back, and a single
// flapping probe moves nothing. A backend starts down.
//
// Requests. Every proxied attempt is observed. A transport error is
// stronger evidence than a failed probe — the backend just dropped a
// real request — so it marks the backend down at once and kicks an
// out-of-band probe, which bounds failover latency to one probe interval
// after a kill. A backend that connects fine but answers 500s (a wedged
// cache, an injected fault) keeps its /readyz green, so request failures
// also feed a circuit breaker: BreakerFailures consecutive failures open
// it, the router routes around the backend, and after the cooldown one
// half-open request is let through to test the water.
//
//	event            health                        breaker
//	probe ok         down→up after RecoverAfter    closed on down→up
//	probe failed     up→down after FailAfter       —
//	transport error  down at once, probe kicked    failure
//	500 / 502        —                             failure
//	429 / 503        —                             —
//	other answer     —                             closed
//
// A failure opens the breaker at the threshold and, while it is open,
// re-arms the cooldown. A backend is usable while healthy and not inside
// an open breaker's cooldown. State is keyed by backend URL, so a ring
// rebuild never renumbers anyone's history, and one add/remove covers
// the poll loop and the breaker alike.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// backend is the state machine of one backend, guarded by its own lock.
type backend struct {
	url string
	// kick wakes the poll loop early: after a transport error (re-confirm
	// the death quickly) and in tests.
	kick chan struct{}
	// stop ends the poll loop (backend removed, or the set closing).
	stop     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	healthy bool
	fails   int // consecutive probe failures (while healthy)
	oks     int // consecutive probe successes (while down)
	// answered records whether the last contact got an HTTP answer: a
	// passed probe, or a /readyz refusal (draining, warming, shedding).
	// A transport error clears it.
	answered bool
	// instance and epoch are learned from the /readyz body, so router
	// metrics can attribute backends without extra round trips.
	instance    string
	epoch       string
	lastErr     string
	probes      int64
	transitions int64
	reqFails    int       // consecutive request failures
	open        bool      // breaker tripped
	openUntil   time.Time // while open: when the next half-open request may go
}

// benched reports whether an open breaker routes traffic around b at
// now. Past openUntil it answers false — the half-open window — but the
// request slot itself is claimed via allow. Callers hold b.mu.
func (b *backend) benched(now time.Time) bool {
	return b.open && now.Before(b.openUntil)
}

// readyzBody is the slice of the vabufd /readyz response a probe reads.
type readyzBody struct {
	Status   string `json:"status"`
	Instance string `json:"instance"`
	Epoch    string `json:"epoch"`
}

// backendStates holds the state machines of the current members and
// runs one poll loop per member.
type backendStates struct {
	cfg   Config // probe, breaker, client and log settings, defaults applied
	opens atomic.Int64

	mu     sync.Mutex
	m      map[string]*backend // keyed by backend URL
	closed bool
	wg     sync.WaitGroup
}

func newBackendStates(cfg Config) *backendStates {
	return &backendStates{cfg: cfg, m: make(map[string]*backend)}
}

// add starts tracking a backend, down and with its breaker closed, and
// starts its poll loop. Adding a tracked backend is a no-op.
func (s *backendStates) add(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.m[url] != nil {
		return
	}
	b := &backend{url: url, kick: make(chan struct{}, 1), stop: make(chan struct{})}
	s.m[url] = b
	s.wg.Add(1)
	go s.loop(b)
}

// remove stops a backend's poll loop and forgets its state; it is no
// longer usable or reachable. A no-op for unknown backends.
func (s *backendStates) remove(url string) {
	s.mu.Lock()
	b := s.m[url]
	delete(s.m, url)
	s.mu.Unlock()
	if b != nil {
		b.stopOnce.Do(func() { close(b.stop) })
	}
}

// close stops every poll loop and waits for them to exit.
func (s *backendStates) close() {
	s.mu.Lock()
	s.closed = true
	m := s.m
	s.m = make(map[string]*backend)
	s.mu.Unlock()
	for _, b := range m {
		b.stopOnce.Do(func() { close(b.stop) })
	}
	s.wg.Wait()
}

// get fetches a tracked backend (nil when unknown or removed).
func (s *backendStates) get(url string) *backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[url]
}

// lookup is get for readers: an unknown or removed backend reads as a
// zero state — down, never answered, breaker closed.
func (s *backendStates) lookup(url string) *backend {
	if b := s.get(url); b != nil {
		return b
	}
	return &backend{}
}

// loop probes one backend until it is stopped: immediately on start,
// then on the jittered interval, or earlier when kicked.
func (s *backendStates) loop(b *backend) {
	defer s.wg.Done()
	for {
		select {
		case <-b.stop:
			return
		default:
		}
		s.probe(b)
		// ±30% jitter decorrelates the probes of multiple routers (and of
		// this router's backends) so a fleet never sees probe bursts.
		d := time.Duration(float64(s.cfg.ProbeInterval) * (0.7 + 0.6*rand.Float64()))
		t := time.NewTimer(d)
		select {
		case <-b.stop:
			t.Stop()
			return
		case <-b.kick:
			t.Stop()
		case <-t.C:
		}
	}
}

// probe performs one /readyz probe and records its outcome.
func (s *backendStates) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		s.recordProbe(b, false, false, readyzBody{}, err.Error())
		return
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		s.recordProbe(b, false, false, readyzBody{}, err.Error())
		return
	}
	defer resp.Body.Close()
	var body readyzBody
	_ = json.NewDecoder(resp.Body).Decode(&body) // identity fields are best-effort
	if resp.StatusCode != http.StatusOK {
		reason := body.Status
		if reason == "" {
			reason = resp.Status
		}
		s.recordProbe(b, false, true, body, "readyz: "+reason)
		return
	}
	s.recordProbe(b, true, true, body, "")
}

// recordProbe applies the hysteresis rules to one probe outcome; ok is
// a passed probe, answered any HTTP response. A down→up flip closes the
// breaker: a passed /readyz after a down period is recovery evidence
// too, or a backend could pass its probes yet sit benched for a full
// cooldown after its failure streak.
func (s *backendStates) recordProbe(b *backend, ok, answered bool, body readyzBody, errMsg string) {
	b.mu.Lock()
	b.probes++
	b.answered = answered
	b.lastErr = errMsg
	if body.Instance != "" {
		b.instance, b.epoch = body.Instance, body.Epoch
	}
	var up, down bool
	if ok {
		b.fails = 0
		if !b.healthy {
			b.oks++
			if up = b.oks >= s.cfg.RecoverAfter; up {
				b.healthy, b.oks = true, 0
				b.transitions++
				b.reqFails, b.open = 0, false
			}
		}
	} else {
		b.oks = 0
		if b.healthy {
			b.fails++
			if down = b.fails >= s.cfg.FailAfter; down {
				b.healthy, b.fails = false, 0
				b.transitions++
			}
		}
	}
	b.mu.Unlock()
	switch {
	case up:
		s.cfg.Logf("vabufr: backend %s recovered", b.url)
	case down:
		s.cfg.Logf("vabufr: backend %s marked down (%s)", b.url, errMsg)
	}
}

// usable reports whether a backend takes traffic: healthy, and not
// inside an open breaker's cooldown.
func (s *backendStates) usable(url string) bool {
	b := s.lookup(url)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy && !b.benched(time.Now())
}

// allow claims the right to send one request to a backend: always true
// while its breaker is closed; while open, true only for the single
// half-open request per cooldown — claiming it pushes openUntil forward
// so concurrent requests don't all probe at once. A backend removed
// under an in-flight request has no breaker left to refuse it.
func (s *backendStates) allow(url string) bool {
	b := s.lookup(url)
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	now := time.Now()
	if now.Before(b.openUntil) {
		return false
	}
	b.openUntil = now.Add(s.cfg.BreakerCooldown)
	return true
}

// observe records the outcome of one attempt at a backend: att is its
// HTTP answer, err its transport error (see the transition table).
// Errors that are the client's own doing (clientFault) must not reach
// it. A no-op for removed backends.
func (s *backendStates) observe(url string, att *attempt, err error) {
	b := s.get(url)
	if b == nil {
		return
	}
	b.mu.Lock()
	down := false
	switch {
	case err != nil:
		b.lastErr, b.answered = err.Error(), false
		b.fails, b.oks = 0, 0
		if down = b.healthy; down {
			b.healthy = false
			b.transitions++
		}
		s.failure(b)
	case retryable5xx(att.status):
		s.failure(b)
	case saturated(att.status):
		// Back-pressure, not failure.
	default:
		b.reqFails, b.open = 0, false
	}
	b.mu.Unlock()
	if err == nil {
		return
	}
	if down {
		s.cfg.Logf("vabufr: backend %s marked down (%s)", url, err)
	}
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// failure counts one request failure against b's breaker: at the
// threshold it opens, and a failed half-open request re-arms the
// cooldown. Callers hold b.mu.
func (s *backendStates) failure(b *backend) {
	b.reqFails++
	switch {
	case b.open:
		b.openUntil = time.Now().Add(s.cfg.BreakerCooldown)
	case b.reqFails >= s.cfg.BreakerFailures:
		b.open = true
		b.openUntil = time.Now().Add(s.cfg.BreakerCooldown)
		s.opens.Add(1)
	}
}

// healthy reports a backend's probe verdict.
func (s *backendStates) healthy(url string) bool {
	b := s.lookup(url)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// anyHealthy reports whether at least one backend is healthy — the
// router's own readiness condition.
func (s *backendStates) anyHealthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.m {
		b.mu.Lock()
		ok := b.healthy
		b.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// reachable reports whether a backend's process is believed alive even
// if it is not taking traffic: healthy, or its last contact got an HTTP
// answer (a /readyz refusal while draining, warming, shedding) rather
// than a transport error — and its breaker is closed. A reachable but
// down backend can still answer cheap read-only requests: the
// synchronous peer lookup uses this to rescue cached results from a
// draining owner without paying a connect timeout to a dead one, or
// sending to one whose requests keep failing.
func (s *backendStates) reachable(url string) bool {
	b := s.lookup(url)
	b.mu.Lock()
	defer b.mu.Unlock()
	return (b.healthy || b.answered) && !b.open
}

// epochOf returns the last epoch learned from a backend's /readyz.
func (s *backendStates) epochOf(url string) string {
	b := s.lookup(url)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// snapshot returns the metrics view of a backend's state (zero-valued
// for unknown backends, e.g. one added an instant ago).
func (s *backendStates) snapshot(url string) map[string]any {
	b := s.lookup(url)
	b.mu.Lock()
	defer b.mu.Unlock()
	return map[string]any{
		"healthy":     b.healthy,
		"instance":    b.instance,
		"epoch":       b.epoch,
		"probes":      b.probes,
		"transitions": b.transitions,
		"last_error":  b.lastErr,
	}
}

// breakerStats reports (breakers open right now, lifetime trips).
func (s *backendStates) breakerStats() (openNow int, opens int64) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.m {
		b.mu.Lock()
		if b.benched(now) {
			openNow++
		}
		b.mu.Unlock()
	}
	return openNow, s.opens.Load()
}
