package server

// POST /v1/cache/fill — the peer-cache-fill admission endpoint. When a
// vabufr router fails a request over to a non-owner backend, the owner's
// result cache stays cold even after the owner recovers: the next repeat
// routed to it would recompute from scratch. The router therefore
// replays the serving backend's answer here once the owner's /readyz
// probe recovers, and the owner stores it under its own fingerprint —
// the fleet's caches re-converge without burning a worker.
//
// The fill carries the *request* (so this instance computes the
// fingerprint itself — it never trusts a peer-supplied cache key) and
// the serving backend's epoch. An epoch mismatch is refused with 409:
// a result computed against another library generation must never be
// admitted under this instance's keys, or an epoch bump would silently
// resurrect exactly the stale results it exists to kill.

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// CacheFillRequest is the body of POST /v1/cache/fill.
type CacheFillRequest struct {
	// Kind is "insert" or "yield" — the result space of the fill.
	Kind string `json:"kind"`
	// Epoch is the cache epoch of the backend that computed Result.
	Epoch string `json:"epoch,omitempty"`
	// Request is the original client request, verbatim; the receiving
	// instance normalizes it and computes its own fingerprint.
	Request json.RawMessage `json:"request"`
	// Result is the response body the serving backend answered with.
	Result json.RawMessage `json:"result"`
}

// CacheFillResult is the response of POST /v1/cache/fill.
type CacheFillResult struct {
	Stored      bool   `json:"stored"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Reason explains a Stored=false outcome that is not an error
	// (result cache disabled).
	Reason string `json:"reason,omitempty"`
}

// cacheFill handles POST /v1/cache/fill. It runs on the handler
// goroutine — admission is a decode plus an LRU insert, far too cheap to
// queue — and is refused while draining so a fill can never race the
// final snapshot write.
func (s *Server) cacheFill(r *http.Request) (int, any) {
	if s.isDraining() {
		return http.StatusServiceUnavailable, errBody(errDraining)
	}
	var fill CacheFillRequest
	if st, err := decodeJSON(r, s.cfg.MaxRequestBytes, &fill); err != nil {
		return st, errBody(err)
	}
	if fill.Epoch != s.cfg.Epoch {
		s.met.peerFills.Rejected.Inc()
		return http.StatusConflict, errBody(fmt.Errorf(
			"cache fill epoch %q does not match instance epoch %q (stale peer result refused)",
			fill.Epoch, s.cfg.Epoch))
	}
	fp, val, err := s.decodeFill(&fill)
	if err != nil {
		s.met.peerFills.Rejected.Inc()
		return http.StatusBadRequest, errBody(err)
	}
	if s.results == nil {
		return http.StatusOK, CacheFillResult{Stored: false, Reason: "result cache disabled"}
	}
	s.resultStore(fp, val)
	s.met.peerFills.Accepted.Inc()
	return http.StatusOK, CacheFillResult{Stored: true, Fingerprint: fp}
}

// decodeFill validates one fill: the request must normalize (it yields
// the fingerprint) and the result must parse as the matching DTO, so a
// corrupt fill can never plant an unserveable cache entry.
func (s *Server) decodeFill(fill *CacheFillRequest) (fp string, val any, err error) {
	switch fill.Kind {
	case "insert":
		var req InsertRequest
		if err := json.Unmarshal(fill.Request, &req); err != nil {
			return "", nil, fmt.Errorf("decoding fill request: %w", err)
		}
		if err := req.Normalize(); err != nil {
			return "", nil, fmt.Errorf("normalizing fill request: %w", err)
		}
		res := new(InsertResult)
		if err := json.Unmarshal(fill.Result, res); err != nil {
			return "", nil, fmt.Errorf("decoding fill result: %w", err)
		}
		return req.Fingerprint(s.cfg.Epoch), res, nil
	case "yield":
		var req YieldRequest
		if err := json.Unmarshal(fill.Request, &req); err != nil {
			return "", nil, fmt.Errorf("decoding fill request: %w", err)
		}
		if err := req.Normalize(); err != nil {
			return "", nil, fmt.Errorf("normalizing fill request: %w", err)
		}
		res := new(YieldResult)
		if err := json.Unmarshal(fill.Result, res); err != nil {
			return "", nil, fmt.Errorf("decoding fill result: %w", err)
		}
		return req.Fingerprint(s.cfg.Epoch), res, nil
	default:
		return "", nil, fmt.Errorf("unknown fill kind %q (want insert or yield)", fill.Kind)
	}
}
