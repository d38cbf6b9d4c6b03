package router

// Synchronous peer lookup: the router's only way to rescue a warm cache
// after a key changed hands. Two events move a key: a ring rebuild reassigned
// it to a different backend, or its owner died and a failover successor
// is standing in. Either way some *other* backend very likely still
// holds the computed result — so before letting the new target compute
// cold, the router asks that backend's cache directly (POST
// /v1/cache/lookup: fingerprint in, cached result or 404 out) with a
// tight deadline. A hit is served to the client verbatim; a miss,
// error, or timeout falls through to the normal proxy path, so the lookup can
// only ever add bounded latency, never an error.
//
// Only the single-request endpoints (insert, yield) consult peers:
// batch requests amortize computation across items (a sub-batch lookup
// fan-out would multiply tail latency for a cache optimization), and a
// stream's value is the progress events, which a cache hit cannot
// replay. This tradeoff is documented in DESIGN.md §11.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"vabuf/internal/server"
)

// lookupCandidate picks the backend whose cache most plausibly holds
// fp's result when `target` is about to serve it, or "" when there is
// no better place to ask than the target itself.
func lookupCandidate(mem *membership, fp, target string) string {
	// A rebuild moved the key: its previous owner (old ring) differs
	// from the target and is still a member. Consulted only within the
	// post-rebuild window — past it the new owner computes the key once
	// and caches it, and the old entry is just an LRU eviction candidate.
	if mem.prev != nil && time.Now().Before(mem.prevExpires) {
		if prev := mem.prev.owner(fp); prev != target && mem.member[prev] {
			return prev
		}
	}
	// Failover: the current ring's owner is not the backend about to
	// serve (it is down or draining) — its cache is the warm one.
	if owner := mem.ring.owner(fp); owner != target {
		return owner
	}
	return ""
}

// peerLookup asks the candidate backend for fp's cached result and
// returns the proxied answer on a hit, nil otherwise. The candidate
// must be reachable (healthy, or refusing /readyz at the HTTP level —
// e.g. draining — which still answers read-only lookups, and with its
// breaker closed); a transport-dead backend is not worth a connect
// timeout.
func (rt *Router) peerLookup(ctx context.Context, mem *membership, kind, fp, target string, reqBody []byte) *attempt {
	if rt.cfg.LookupTimeout < 0 {
		return nil
	}
	cand := lookupCandidate(mem, fp, target)
	if cand == "" || cand == target || !rt.state.reachable(cand) {
		return nil
	}
	// A peer lookup is manufactured traffic against the candidate; when
	// its budget is dry the target just computes cold.
	if !rt.spendRetry(cand) {
		return nil
	}
	rt.met.attempts.Inc(cand)
	payload, err := json.Marshal(server.CacheLookupRequest{
		Kind: kind,
		// The lookup carries the *target's* epoch: the answer must be
		// one the target itself would compute, and the candidate 409s
		// anything from another library generation.
		Epoch:   rt.state.epochOf(target),
		Request: json.RawMessage(reqBody),
	})
	if err != nil {
		return nil
	}
	lctx, cancel := context.WithTimeout(ctx, rt.cfg.LookupTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(lctx, http.MethodPost,
		cand+"/v1/cache/lookup", bytes.NewReader(payload))
	if err != nil {
		rt.met.lookupErrors.Inc()
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.met.lookupErrors.Inc()
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxRequestBytes))
	if err != nil {
		rt.met.lookupErrors.Inc()
		return nil
	}
	switch resp.StatusCode {
	case http.StatusOK:
		rt.met.lookupHits.Inc(cand)
		return &attempt{backend: cand, status: http.StatusOK, header: resp.Header, body: body}
	case http.StatusNotFound:
		rt.met.lookupMisses.Inc()
		return nil
	default:
		// 409 (epoch mismatch), 400, 5xx — all non-answers.
		rt.met.lookupErrors.Inc()
		return nil
	}
}
