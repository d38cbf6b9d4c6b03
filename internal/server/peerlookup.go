package server

// POST /v1/cache/lookup — the synchronous peer-cache read endpoint, the
// fleet's only cross-instance cache path. When a ring rebuild or a
// failover moves a key to a backend that has never seen it, the router
// first asks the key's previous owner whether its result cache still
// holds the answer. A hit means the client is served the cached body
// immediately; a miss is a plain 404 and costs one LRU probe.
//
// The lookup carries the *request* (this instance normalizes it and
// computes its own fingerprint — peer-supplied cache keys are never
// trusted) plus the epoch the answer must belong to. An epoch mismatch
// is refused with 409: a result from another library generation must
// never be served as current. The lookup is allowed while draining — it
// is read-only and racing the final snapshot write is harmless — which
// is exactly what lets a router rescue a draining instance's cache
// before it goes away.

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// CacheLookupRequest is the body of POST /v1/cache/lookup.
type CacheLookupRequest struct {
	// Kind is "insert" or "yield" — the result space to look in.
	Kind string `json:"kind"`
	// Epoch is the cache epoch the caller needs the answer to belong to
	// (typically the epoch of the backend that would otherwise compute).
	Epoch string `json:"epoch,omitempty"`
	// Request is the original client request, verbatim; the receiving
	// instance normalizes it and computes its own fingerprint.
	Request json.RawMessage `json:"request"`
}

// cacheLookup handles POST /v1/cache/lookup. A hit answers 200 with the
// cached result body itself — byte-compatible with what this instance
// would have answered on /v1/insert or /v1/yield — so the router can
// relay it to the client verbatim. A miss answers 404.
func (s *Server) cacheLookup(r *http.Request) (int, any) {
	raw, status, err := readBody(r, s.cfg.MaxRequestBytes)
	if err != nil {
		return status, errBody(err)
	}
	var look CacheLookupRequest
	if err := DecodeStrict(raw, &look); err != nil {
		return http.StatusBadRequest, errBody(err)
	}
	if look.Epoch != s.cfg.Epoch {
		s.met.peerLookups.Misses.Inc()
		return http.StatusConflict, errBody(fmt.Errorf(
			"cache lookup epoch %q does not match instance epoch %q",
			look.Epoch, s.cfg.Epoch))
	}
	// The embedded request is parsed as strictly as the endpoints parse
	// it, so a body they reject can never be served from the cache.
	req, err := ParseRequest(look.Kind, nil, look.Request)
	if err != nil {
		s.met.peerLookups.Misses.Inc()
		return http.StatusBadRequest, errBody(fmt.Errorf("lookup request: %w", err))
	}
	fp := req.Fingerprint(s.cfg.Epoch)
	body, ok := s.resultGet(fp)
	if !ok {
		s.met.peerLookups.Misses.Inc()
		return http.StatusNotFound, errBody(fmt.Errorf(
			"no cached result for fingerprint %s", fp))
	}
	s.met.peerLookups.Hits.Inc()
	return http.StatusOK, body
}
