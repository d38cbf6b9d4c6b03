package server

import (
	"net/http"
	"sync/atomic"
	"time"
)

// serverState tracks the conditions that make an instance not-ready.
// Liveness (GET /healthz) stays 200 through all of them — the process is
// up — while readiness (GET /readyz) turns 503 so a load balancer or
// client-side router steers traffic elsewhere without killing the
// instance.
type serverState struct {
	// draining is set by Close/StartDrain: the server finishes in-flight
	// jobs but admits no new ones.
	draining atomic.Bool
	// restoring is set while a cache snapshot is being restored; requests
	// that arrive early still work, they just miss the still-cold caches.
	restoring atomic.Bool
}

// Readiness reason strings, also exported in /metrics under "state".
const (
	stateReady     = "ready"
	stateDraining  = "draining"
	stateRestoring = "restoring"
	stateShedding  = "shedding"
)

// isDraining reports whether graceful drain has begun.
func (s *Server) isDraining() bool { return s.state.draining.Load() }

// shedding reports whether the queue has been saturated for longer than
// Config.ShedAfter. In that state sweep-class work is rejected before it
// reaches the queue (503 + Retry-After) while interactive work keeps its
// normal admission path — graceful degradation instead of a cliff where
// bulk sweeps crowd out every interactive user.
func (s *Server) shedding() bool {
	return s.cfg.ShedAfter > 0 && s.pool.saturatedFor() >= s.cfg.ShedAfter
}

// readyState reduces the state flags to one reason string, most severe
// first: a draining server is gone for good, a restoring one will be
// ready shortly, a shedding one recovers as soon as backlog drains.
func (s *Server) readyState() string {
	switch {
	case s.isDraining():
		return stateDraining
	case s.state.restoring.Load():
		return stateRestoring
	case s.shedding():
		return stateShedding
	default:
		return stateReady
	}
}

// readyz is GET /readyz: 200 when the instance should receive traffic,
// 503 with the reason while draining, restoring a snapshot, or shedding
// under sustained saturation. Pair it with /healthz — liveness restarts
// the process, readiness only steers traffic away.
func (s *Server) readyz(*http.Request) (int, any) {
	state := s.readyState()
	body := map[string]any{
		"status":         state,
		"uptime_seconds": time.Since(s.met.start).Seconds(),
		// instance and epoch let a probing router attribute this backend
		// and tag peer cache lookups without a separate /metrics call.
		"instance": s.InstanceID(),
		"epoch":    s.cfg.Epoch,
	}
	if state != stateReady {
		return http.StatusServiceUnavailable, body
	}
	return http.StatusOK, body
}
