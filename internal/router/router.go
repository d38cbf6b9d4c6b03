package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vabuf/internal/server"
)

// Config sizes one Router. Zero values select the documented defaults.
type Config struct {
	// Backends are the vabufd base URLs forming the initial ring
	// (required). Membership can change at runtime via Reload.
	Backends []string
	// VNodes is the number of virtual nodes per backend; <=0 selects 64.
	VNodes int
	// ProbeInterval/ProbeTimeout drive the background /readyz poller
	// (defaults 2s / 1s; the interval is jittered ±30%).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailAfter/RecoverAfter are the probe hysteresis thresholds
	// (defaults 2 / 2). A failed proxy attempt bypasses FailAfter: the
	// backend just dropped a real request and is marked down immediately.
	FailAfter    int
	RecoverAfter int
	// MaxRequestBytes bounds request bodies; <=0 selects 8 MiB.
	MaxRequestBytes int64
	// LookupTimeout bounds one synchronous peer lookup (POST
	// /v1/cache/lookup at a key's previous owner before the new or
	// failover owner computes it cold); <=0 selects 500ms. Negative
	// disables peer lookup entirely.
	LookupTimeout time.Duration
	// LookupWindow bounds how long after a ring rebuild moved keys are
	// still looked up at their previous owner; <=0 selects 1 minute.
	// The window is a transition aid: within it repeats of a moved key
	// are still served from the warm previous owner; after it the new
	// owner computes each moved key once and caches it.
	LookupWindow time.Duration
	// RetryBudget is the per-backend retry token ratio: each first
	// attempt routed to a backend earns it this fraction of a token, and
	// every manufactured request sent to it (failover hop, hedge, peer
	// lookup) pays one whole token. 0 selects 0.1 (~10% extra traffic at
	// steady state); negative disables budgeting.
	RetryBudget float64
	// RetryBurst is the token-bucket cap and initial balance (<=0
	// selects 10) — the headroom for failover bursts before any credit
	// has accrued.
	RetryBurst int
	// HedgeAfter enables hedged sends on the idempotent single-request
	// endpoints (insert, yield): when the first attempt has produced no
	// answer within max(HedgeAfter, observed p95 latency), a budgeted
	// duplicate goes to the next usable backend and the first conclusive
	// answer wins. <=0 (the default) disables hedging.
	HedgeAfter time.Duration
	// BreakerFailures is the consecutive-failure threshold of the
	// per-backend circuit breaker (transport errors and retryable 5xx
	// count; saturation does not); <=0 selects 5.
	BreakerFailures int
	// BreakerCooldown is how long an open breaker routes around its
	// backend before letting one half-open probe request through
	// (<=0 selects 5s).
	BreakerCooldown time.Duration
	// EnableAdmin mounts the membership admin endpoints (GET/POST
	// /admin/backends). Off by default: resizing the fleet over HTTP is
	// opt-in via the vabufr -admin flag.
	EnableAdmin bool
	// Client is the proxy HTTP client; nil selects a default without a
	// global timeout (streams are long-lived; per-attempt deadlines come
	// from the inbound request context).
	Client *http.Client
	// Logf receives operational log lines; nil selects log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 2
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.LookupTimeout == 0 {
		c.LookupTimeout = 500 * time.Millisecond
	}
	if c.LookupWindow <= 0 {
		c.LookupWindow = time.Minute
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 0.1
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = 10
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// membership is one immutable view of the fleet: the member URLs, the
// ring over them, and the ring before the last rebuild. Handlers load
// it once per request from the Router's atomic pointer, so a concurrent
// Reload never changes the ground under an in-flight request — it keeps
// routing against the view it started with and the next request sees
// the new one.
type membership struct {
	backends []string        // member base URLs, in configured order
	member   map[string]bool // set view of backends
	ring     *hashRing
	// prev is the ring before the last rebuild (nil until the first
	// Reload). It answers "who owned this key a moment ago" — the
	// backend whose cache is still warm for a key the rebuild moved.
	// It is consulted only until prevExpires: past that moved keys
	// route (and cache) normally at their new owners.
	prev        *hashRing
	prevExpires time.Time
}

// Router is the vabufr HTTP front: consistent-hash routing with dynamic
// membership, health-aware failover, batch scatter-gather, and
// synchronous peer lookup over a fleet of vabufd backends. Create with
// New, expose via Handler, Close after the listener has shut down.
type Router struct {
	cfg Config
	mem atomic.Pointer[membership]
	// state answers whether each backend may take traffic (probe health
	// and circuit breaker in one machine per backend).
	state *backendStates
	met   *rmetrics
	mux   *http.ServeMux
	// budget bounds manufactured traffic (nil = disabled, unlimited); lat
	// feeds the adaptive hedge trigger.
	budget *retryBudget
	lat    latencyTracker

	reloadMu  sync.Mutex // serializes Reload against itself
	closeOnce sync.Once
}

// New builds a Router over the configured backends and starts probing
// them.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	backends, err := normalizeBackends(cfg.Backends)
	if err != nil {
		return nil, err
	}
	ring, err := newRing(backends, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:   cfg,
		state: newBackendStates(cfg),
		met:   newRMetrics(),
		mux:   http.NewServeMux(),
	}
	if cfg.RetryBudget > 0 {
		rt.budget = newRetryBudget(cfg.RetryBudget, cfg.RetryBurst)
	}
	rt.mem.Store(&membership{backends: backends, member: memberSet(backends), ring: ring})
	rt.met.ringRebuilds.Inc()

	for _, kind := range []string{"insert", "yield"} {
		ep := "/v1/" + kind
		rt.mux.HandleFunc("POST "+ep, rt.single(ep, kind))
		rt.mux.HandleFunc("POST "+ep+":batch", rt.batch(ep+":batch", kind))
	}
	rt.mux.HandleFunc("POST /v1/yield:stream", rt.stream)
	rt.mux.HandleFunc("GET /v1/benchmarks", rt.anyBackend("/v1/benchmarks"))
	rt.mux.HandleFunc("GET /healthz", rt.healthz)
	rt.mux.HandleFunc("GET /readyz", rt.readyz)
	rt.mux.HandleFunc("GET /metrics", rt.metricsHandler)
	if cfg.EnableAdmin {
		rt.mux.HandleFunc("GET /admin/backends", rt.adminGetBackends)
		rt.mux.HandleFunc("POST /admin/backends", rt.adminSetBackends)
	}

	for _, b := range backends {
		rt.state.add(b)
	}
	return rt, nil
}

// normalizeBackends trims whitespace and trailing slashes and drops
// empties; duplicates surface later as a newRing error.
func normalizeBackends(in []string) ([]string, error) {
	var out []string
	for _, b := range in {
		b = strings.TrimSpace(b)
		b = strings.TrimRight(b, "/")
		if b != "" {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("backend list is empty")
	}
	return out, nil
}

func memberSet(backends []string) map[string]bool {
	set := make(map[string]bool, len(backends))
	for _, b := range backends {
		set[b] = true
	}
	return set
}

// sameMembers reports whether two backend lists name the same set
// (order is routing-irrelevant: ring points depend only on addresses).
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := memberSet(a)
	for _, url := range b {
		if !set[url] {
			return false
		}
	}
	return true
}

// Reload rebuilds the ring over a new backend set and swaps it in
// atomically. In-flight requests keep the membership view they started
// with; new requests route on the new ring. Added backends are tracked
// from *down* (they take traffic only after their first healthy probes)
// and removed ones are forgotten. A reload naming the same
// member set is a no-op. The previous ring is retained so keys the
// rebuild moved are served from their previous owner's cache via
// synchronous peer lookup instead of being recomputed cold.
func (rt *Router) Reload(backends []string) error {
	normalized, err := normalizeBackends(backends)
	if err != nil {
		return err
	}
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	old := rt.mem.Load()
	if sameMembers(old.backends, normalized) {
		return nil
	}
	ring, err := newRing(normalized, rt.cfg.VNodes)
	if err != nil {
		return err
	}
	next := &membership{
		backends:    normalized,
		member:      memberSet(normalized),
		ring:        ring,
		prev:        old.ring,
		prevExpires: time.Now().Add(rt.cfg.LookupWindow),
	}
	// Track additions before the swap so the first request routed to a
	// new backend finds its state (down, not unknown).
	added, removed := 0, 0
	for _, url := range normalized {
		if !old.member[url] {
			rt.state.add(url)
			added++
		}
	}
	rt.mem.Store(next)
	// Retire removals after the swap: requests still holding the old
	// membership degrade gracefully (a removed backend is not usable, so
	// they prefer surviving members).
	for _, url := range old.backends {
		if !next.member[url] {
			rt.state.remove(url)
			rt.budget.retire(url)
			removed++
		}
	}
	rt.met.ringRebuilds.Inc()
	rt.cfg.Logf("vabufr: ring rebuilt: %d backends (%d added, %d removed)",
		len(normalized), added, removed)
	return nil
}

// expirePrev drops the previous ring immediately, as if the lookup
// window had elapsed (tests).
func (rt *Router) expirePrev() {
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	old := rt.mem.Load()
	if old.prev == nil {
		return
	}
	next := *old
	next.prev = nil
	rt.mem.Store(&next)
}

// Backends returns the current member URLs.
func (rt *Router) Backends() []string {
	return append([]string(nil), rt.mem.Load().backends...)
}

// Handler returns the root handler for an http.Server.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the probe loops.
func (rt *Router) Close() {
	rt.closeOnce.Do(rt.state.close)
}

// writeJSON emits a JSON body with the vabufd response conventions
// (indented, Retry-After on overload statuses).
func (rt *Router) writeJSON(w http.ResponseWriter, endpoint string, status int, body any) {
	rt.met.requests.Record(endpoint, status)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func errorBody(err error) server.ErrorResult { return server.ErrorResult{Error: err.Error()} }

// readBody reads the request body under the configured limit, mapping
// overruns to 413 like the backends do.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf(
				"request body exceeds the %d-byte limit", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading request: %w", err)
	}
	return body, 0, nil
}

// parseSingle reads and parses a single request of kind, answering a
// failure itself, and returns the body to forward and its partition
// key: the backend's fingerprint under the *empty* epoch, so an epoch
// bump invalidates caches without moving any partition.
func (rt *Router) parseSingle(w http.ResponseWriter, r *http.Request, endpoint, kind string) ([]byte, string, bool) {
	body, status, err := rt.readBody(w, r)
	if err != nil {
		rt.writeJSON(w, endpoint, status, errorBody(err))
		return nil, "", false
	}
	req, err := server.ParseRequest(kind, nil, body)
	if err != nil {
		rt.writeJSON(w, endpoint, http.StatusBadRequest, errorBody(err))
		return nil, "", false
	}
	return body, req.Fingerprint(""), true
}

// attempt is the outcome of one proxied call that received an HTTP
// response (transport failures never produce one). Its body is
// buffered, except for a conclusive answer to a stream request: that
// one keeps its body unread in stream for the relay.
type attempt struct {
	backend string
	status  int
	header  http.Header
	body    []byte
	stream  *http.Response
}

// send issues one request to a backend's path — a JSON POST of payload,
// or a bodiless GET — and returns the unread response. The remaining
// deadline budget of ctx (when it has one) rides along in
// Vabuf-Deadline-Ms — stamped at send time, so queue and transit time
// already spent is naturally subtracted at every hop.
func (rt *Router) send(ctx context.Context, method, url, path string, payload []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	server.SetDeadlineHeader(req.Header, ctx)
	return rt.cfg.Client.Do(req)
}

// fetch is send with the response buffered.
func (rt *Router) fetch(ctx context.Context, method, url, path string, payload []byte) (*attempt, error) {
	resp, err := rt.send(ctx, method, url, path, payload)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &attempt{backend: url, status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// openStream is send for a streaming endpoint: a conclusive answer comes
// back with its body unread in stream, while the answers the walk may
// pass over (saturation, retryable 5xx) are buffered like fetch's.
func (rt *Router) openStream(ctx context.Context, url, path string, payload []byte) (*attempt, error) {
	resp, err := rt.send(ctx, http.MethodPost, url, path, payload)
	if err != nil {
		return nil, err
	}
	att := &attempt{backend: url, status: resp.StatusCode, header: resp.Header}
	if conclusive(att.status) {
		att.stream = resp
		return att, nil
	}
	defer resp.Body.Close()
	if att.body, err = io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxRequestBytes)); err != nil {
		return nil, err
	}
	return att, nil
}

// statusClientClosed mirrors the backends' non-standard 499 for requests
// whose client went away while the router was serving them.
const statusClientClosed = 499

// errDeadlineSpent answers requests whose propagated deadline budget is
// already gone; errDeadlineExpired answers those whose budget ran out
// while the router was still trying backends.
var (
	errDeadlineSpent   = errors.New("request deadline already spent before routing")
	errDeadlineExpired = errors.New("request deadline expired while contacting backends")
)

// deadlineContext derives a handler's working context from the
// propagated Vabuf-Deadline-Ms header. A spent budget is answered 504
// here (ok=false — the handler must return); otherwise the returned
// context carries the remaining budget as its deadline and every
// outbound hop re-stamps what is left.
func (rt *Router) deadlineContext(endpoint string, w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	remaining, has := server.DeadlineFromHeader(r.Header)
	if !has {
		return r.Context(), func() {}, true
	}
	if remaining <= 0 {
		rt.met.deadlineRejected.Inc(endpoint)
		rt.writeJSON(w, endpoint, http.StatusGatewayTimeout, errorBody(errDeadlineSpent))
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(r.Context(), remaining)
	return ctx, cancel, true
}

// finishUnserved answers a request no backend served: 504 when its
// deadline expired mid-walk, 499 when the client went away (written
// best-effort — the connection is usually gone — but recorded either
// way), 503 when the ring is genuinely down.
func (rt *Router) finishUnserved(w http.ResponseWriter, endpoint string, ctx context.Context) {
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			rt.writeJSON(w, endpoint, http.StatusGatewayTimeout, errorBody(errDeadlineExpired))
		} else {
			rt.writeJSON(w, endpoint, statusClientClosed, errorBody(
				fmt.Errorf("client closed request: %w", err)))
		}
		return
	}
	rt.writeJSON(w, endpoint, http.StatusServiceUnavailable, errorBody(errNoBackend))
}

// clientFault reports whether a transport error is the *client's* doing
// — its context died, or the request's deadline ran out — rather than
// backend evidence. Such errors must not mark the backend down, trip
// its breaker, or consume retry budget.
func clientFault(ctx context.Context, err error) bool {
	return ctx.Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// spendRetry pays one retry-budget token for a manufactured request to
// url, counting the denial when the bucket is dry.
func (rt *Router) spendRetry(url string) bool {
	if rt.budget.spend(url) {
		return true
	}
	rt.met.budgetExhausted.Inc()
	return false
}

// saturated reports an explicit back-off signal: the backend is up but
// refusing work (queue full, draining, shedding) — worth trying the next
// ring node, and surfaced verbatim when the whole ring answers it.
func saturated(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// conclusive reports an answer the walk serves rather than passes over:
// neither saturation nor a retryable 5xx.
func conclusive(status int) bool {
	return !saturated(status) && !retryable5xx(status)
}

// tryBackends walks the candidate backends in order: unusable ones are
// skipped (unless every candidate is — probes may simply not have run
// yet), every attempt's outcome is observed by the backend's state
// machine, transport errors and retryable 5xx answers (500/502) move on
// to the next backend, and 429/503 answers are remembered but passed
// over. Only the first send is free: every further hop pays a
// retry-budget token, and a dry bucket stops the walk — the router must
// never amplify an outage into a retry storm. It returns the first
// conclusive answer; failing that the last retryable 5xx (the truth
// beats a made-up 503); failing that the last saturated answer; failing
// that nil. The client's context dying stops the walk without marking
// anyone down — retrying for a caller that hung up only burns backends.
func (rt *Router) tryBackends(ctx context.Context, order []string, path string, payload []byte) (served, sat *attempt) {
	return rt.walk(ctx, order, func(b string) (*attempt, error) {
		return rt.fetch(ctx, http.MethodPost, b, path, payload)
	})
}

// walk is tryBackends over any sender; send issues one attempt to a
// backend.
func (rt *Router) walk(ctx context.Context, order []string, send func(b string) (*attempt, error)) (served, sat *attempt) {
	anyUsable := slices.ContainsFunc(order, rt.state.usable)
	sent := 0
	var failed *attempt
	for _, b := range order {
		if ctx.Err() != nil {
			return nil, sat
		}
		if anyUsable && !rt.state.usable(b) {
			continue
		}
		if sent > 0 && !rt.spendRetry(b) {
			break
		}
		if !rt.state.allow(b) {
			continue // lost the half-open slot to a sibling request
		}
		if sent == 0 {
			rt.budget.credit(b)
		}
		sent++
		rt.met.attempts.Inc(b)
		att, err := send(b)
		if err != nil && clientFault(ctx, err) {
			return nil, sat
		}
		rt.state.observe(b, att, err)
		switch {
		case err != nil:
		case saturated(att.status):
			sat = att
		case retryable5xx(att.status):
			failed = att
		default:
			rt.met.proxied.Inc(b)
			return att, sat
		}
	}
	if failed != nil {
		return failed, sat
	}
	return nil, sat
}

// copyProxied relays a buffered backend response verbatim: status, body,
// and the headers that matter to clients (content type, backpressure,
// backend identity).
func (rt *Router) copyProxied(w http.ResponseWriter, endpoint string, att *attempt) {
	rt.met.requests.Record(endpoint, att.status)
	for _, h := range []string{"Content-Type", "Retry-After", "Vabuf-Instance", "Vabuf-Epoch"} {
		if v := att.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(att.status)
	w.Write(att.body)
}

// errNoBackend is the whole-ring-down answer; 503 keeps it retryable for
// clients already handling backend saturation.
var errNoBackend = errors.New("no vabufd backend could serve the request; ring is down or unreachable")

// servingTarget is the backend tryBackends will actually hit first: the
// first usable backend of the order, or the owner when none is usable.
func (rt *Router) servingTarget(order []string) string {
	if i := slices.IndexFunc(order, rt.state.usable); i >= 0 {
		return order[i]
	}
	return order[0]
}

// single returns the handler proxying one non-batch endpoint.
func (rt *Router) single(endpoint, kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel, ok := rt.deadlineContext(endpoint, w, r)
		if !ok {
			return
		}
		defer cancel()
		body, fp, ok := rt.parseSingle(w, r, endpoint, kind)
		if !ok {
			return
		}
		mem := rt.mem.Load()
		order := mem.ring.successors(fp, len(mem.backends))
		target := rt.servingTarget(order)
		// Before the target computes a key it may never have seen —
		// because a rebuild moved the key to it, or because it is a
		// failover successor standing in for a down owner — ask the
		// previous owner's cache synchronously. A hit serves the client
		// immediately; the target computes the key on its first miss.
		if att := rt.peerLookup(ctx, mem, kind, fp, target, body); att != nil {
			rt.copyProxied(w, endpoint, att)
			return
		}
		var served, sat *attempt
		if rt.cfg.HedgeAfter > 0 {
			// insert and yield are idempotent pure computations (and the
			// backends coalesce identical in-flight requests), so a
			// duplicate send is safe.
			served, sat = rt.tryHedged(ctx, order, endpoint, body)
		} else {
			t0 := time.Now()
			served, sat = rt.tryBackends(ctx, order, endpoint, body)
			if served != nil && served.status == http.StatusOK {
				rt.lat.observe(time.Since(t0))
			}
		}
		rt.reply(w, endpoint, ctx, order[0], served, sat)
	}
}

// reply answers the client with the outcome of a walk over owner's
// successor order: the served answer (relayed as a stream when it is
// one), else the saturated answer, else finishUnserved's. An empty owner
// (a walk over the whole membership) counts no failover.
func (rt *Router) reply(w http.ResponseWriter, endpoint string, ctx context.Context, owner string, served, sat *attempt) {
	switch {
	case served != nil:
		if owner != "" && served.backend != owner {
			rt.met.failovers.Inc(owner)
		}
		if served.stream != nil {
			rt.relayStream(w, endpoint, served.stream)
		} else {
			rt.copyProxied(w, endpoint, served)
		}
	case sat != nil:
		rt.copyProxied(w, endpoint, sat)
	default:
		rt.finishUnserved(w, endpoint, ctx)
	}
}

// stream proxies POST /v1/yield:stream with tryBackends' walk, so a
// backend's 500/502 counts against its breaker and moves on to the next
// backend. Failover happens only up to the first accepted response: once
// NDJSON bytes have been flushed to the client, a mid-stream backend
// death cannot be replayed transparently (the client has already seen
// part of the event stream) and surfaces as a truncated stream the
// client retries.
func (rt *Router) stream(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/yield:stream"
	ctx, cancel, ok := rt.deadlineContext(endpoint, w, r)
	if !ok {
		return
	}
	defer cancel()
	body, fp, ok := rt.parseSingle(w, r, endpoint, "yield")
	if !ok {
		return
	}
	mem := rt.mem.Load()
	order := mem.ring.successors(fp, len(mem.backends))
	served, sat := rt.walk(ctx, order, func(b string) (*attempt, error) {
		return rt.openStream(ctx, b, endpoint, body)
	})
	rt.reply(w, endpoint, ctx, order[0], served, sat)
}

// relayStream copies an accepted streaming response chunk by chunk,
// flushing after every read so progress events reach the client as the
// backend emits them.
func (rt *Router) relayStream(w http.ResponseWriter, endpoint string, resp *http.Response) {
	defer resp.Body.Close()
	rt.met.requests.Record(endpoint, resp.StatusCode)
	for _, h := range []string{"Content-Type", "Vabuf-Instance", "Vabuf-Epoch"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers now: the client should see the stream open
		// as soon as the backend accepts, not after the first event.
		flusher.Flush()
	}
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client gone; backend stops via context propagation
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// anyBackend proxies a read-only GET (e.g. /v1/benchmarks) with the
// usual walk over the whole membership — every backend answers it
// identically, so any usable one will do, and the walk's none-usable
// fallback keeps a freshly booted router from answering 503 for up to a
// probe interval while the whole fleet is live.
func (rt *Router) anyBackend(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel, ok := rt.deadlineContext(path, w, r)
		if !ok {
			return
		}
		defer cancel()
		served, sat := rt.walk(ctx, rt.mem.Load().backends, func(b string) (*attempt, error) {
			return rt.fetch(ctx, http.MethodGet, b, path, nil)
		})
		rt.reply(w, path, ctx, "", served, sat)
	}
}

func (rt *Router) healthz(w http.ResponseWriter, _ *http.Request) {
	rt.writeJSON(w, "/healthz", http.StatusOK, map[string]any{"status": "ok"})
}

// readyz answers 200 once at least one backend is healthy — before that
// the router could only answer 503s, so it should not take traffic.
func (rt *Router) readyz(w http.ResponseWriter, _ *http.Request) {
	if rt.state.anyHealthy() {
		rt.writeJSON(w, "/readyz", http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	rt.writeJSON(w, "/readyz", http.StatusServiceUnavailable,
		map[string]any{"status": "no_healthy_backends"})
}

func (rt *Router) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	rt.writeJSON(w, "/metrics", http.StatusOK, rt.met.snapshot(rt.mem.Load(), rt.state))
}

// adminBackendsRequest is the body of POST /admin/backends.
type adminBackendsRequest struct {
	Backends []string `json:"backends"`
}

// adminBackendsResult answers both admin endpoints.
type adminBackendsResult struct {
	Backends     []string `json:"backends"`
	RingRebuilds int64    `json:"ring_rebuilds"`
}

func (rt *Router) adminGetBackends(w http.ResponseWriter, _ *http.Request) {
	rt.writeJSON(w, "/admin/backends", http.StatusOK, adminBackendsResult{
		Backends:     rt.Backends(),
		RingRebuilds: rt.met.ringRebuilds.Load(),
	})
}

// adminSetBackends replaces the fleet membership over HTTP — the
// programmatic twin of SIGHUP + -backends-file.
func (rt *Router) adminSetBackends(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/admin/backends"
	body, status, err := rt.readBody(w, r)
	if err != nil {
		rt.writeJSON(w, endpoint, status, errorBody(err))
		return
	}
	var req adminBackendsRequest
	if err := server.DecodeStrict(body, &req); err != nil {
		rt.writeJSON(w, endpoint, http.StatusBadRequest, errorBody(err))
		return
	}
	if err := rt.Reload(req.Backends); err != nil {
		rt.writeJSON(w, endpoint, http.StatusBadRequest, errorBody(err))
		return
	}
	rt.writeJSON(w, endpoint, http.StatusOK, adminBackendsResult{
		Backends:     rt.Backends(),
		RingRebuilds: rt.met.ringRebuilds.Load(),
	})
}

// --- batch scatter-gather ---

// preparedItem is one batch item after defaults + normalization: its
// routing state plus the normalized payload forwarded in the sub-batch.
type preparedItem struct {
	index   int
	owner   string   // ring owner (order[0])
	order   []string // full successor order of the item's fingerprint
	payload json.RawMessage
}

// prepareItem parses one batch item under the batch's defaults exactly
// as the backend will, returning its partition key and the normalized
// payload forwarded in the sub-batch.
func prepareItem(kind string, defaults server.Request, item json.RawMessage) (fp string, payload json.RawMessage, err error) {
	req, err := server.ParseRequest(kind, defaults, item)
	if err != nil {
		return "", nil, err
	}
	if payload, err = json.Marshal(req); err != nil {
		return "", nil, err
	}
	return req.Fingerprint(""), payload, nil
}

// batch returns the scatter-gather handler of one batch endpoint: split
// the items per ring owner, fan the sub-batches out concurrently (each
// with the usual failover walk), and reassemble the per-item results in
// the original order with single-backend partial-failure semantics.
func (rt *Router) batch(endpoint, kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel, ok := rt.deadlineContext(endpoint, w, r)
		if !ok {
			return
		}
		defer cancel()
		body, status, err := rt.readBody(w, r)
		if err != nil {
			rt.writeJSON(w, endpoint, status, errorBody(err))
			return
		}
		// A malformed envelope or defaults block fails the whole batch,
		// as it does on a backend.
		items, defaults, err := server.ParseBatch(kind, body)
		if err != nil {
			rt.writeJSON(w, endpoint, http.StatusBadRequest, errorBody(err))
			return
		}

		mem := rt.mem.Load()
		out := server.BatchResult[json.RawMessage]{Items: make([]server.BatchItem[json.RawMessage], len(items))}
		// Split: invalid items answer their 400 locally (parity with the
		// backend's per-item validation); valid ones group under the
		// first *usable* backend of their successor order so a dead
		// owner's items fail over together instead of one by one.
		groups := make(map[string][]preparedItem)
		for i, raw := range items {
			out.Items[i].Index = i
			fp, payload, err := prepareItem(kind, defaults, raw)
			if err != nil {
				out.Items[i].Status, out.Items[i].Error = http.StatusBadRequest, err.Error()
				continue
			}
			order := mem.ring.successors(fp, len(mem.backends))
			target := rt.servingTarget(order)
			groups[target] = append(groups[target], preparedItem{
				index: i, owner: order[0], order: order, payload: payload})
		}
		rt.met.fanout.Inc(strconv.Itoa(len(groups)))

		// Scatter concurrently; each group writes only its own items.
		type groupOutcome struct {
			target string
			att    *attempt // HTTP answer (any status), nil on transport exhaustion
			sat    *attempt
			items  []preparedItem
		}
		outcomes := make(chan groupOutcome, len(groups))
		for target, items := range groups {
			go func(target string, items []preparedItem) {
				payloads := make([]json.RawMessage, len(items))
				for j, it := range items {
					payloads[j] = it.payload
				}
				sub, _ := json.Marshal(server.BatchRequest[json.RawMessage]{Items: payloads})
				served, sat := rt.tryBackends(ctx, rt.groupOrder(mem, target, items), endpoint, sub)
				outcomes <- groupOutcome{target: target, att: served, sat: sat, items: items}
			}(target, items)
		}

		groupsOK, groupsSat429, groupsSat503, groupsDead := 0, 0, 0, 0
		var retryAfter string
		for range groups {
			oc := <-outcomes
			switch {
			case oc.att != nil && oc.att.status == http.StatusOK:
				groupsOK++
				rt.gatherGroup(&out, oc.att, oc.items)
			case oc.att != nil:
				// A conclusive non-200 aggregate (e.g. 400 batch too
				// large): every item of the group inherits it.
				groupsOK++ // conclusively answered, not saturation
				var e server.ErrorResult
				json.Unmarshal(oc.att.body, &e)
				for _, it := range oc.items {
					out.Items[it.index].Status = oc.att.status
					out.Items[it.index].Error = e.Error
				}
			case oc.sat != nil:
				if oc.sat.status == http.StatusTooManyRequests {
					groupsSat429++
				} else {
					groupsSat503++
				}
				if ra := oc.sat.header.Get("Retry-After"); ra != "" {
					retryAfter = ra
				}
				var e server.ErrorResult
				json.Unmarshal(oc.sat.body, &e)
				for _, it := range oc.items {
					out.Items[it.index].Status = oc.sat.status
					out.Items[it.index].Error = e.Error
				}
			default:
				groupsDead++
				for _, it := range oc.items {
					out.Items[it.index].Status = http.StatusServiceUnavailable
					out.Items[it.index].Error = errNoBackend.Error()
				}
			}
		}
		out.Tally()
		// Aggregate parity with a single backend: partial failure never
		// fails the batch; only a batch where no group got work enqueued
		// answers 503 (draining/shedding/dead ring) or 429 (queues full).
		status = http.StatusOK
		if groupsOK == 0 {
			switch {
			case groupsSat503 > 0 || groupsDead > 0:
				status = http.StatusServiceUnavailable
			case groupsSat429 > 0:
				status = http.StatusTooManyRequests
			}
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
		}
		rt.writeJSON(w, endpoint, status, out)
	}
}

// groupOrder is the failover order of one scatter group: the target
// first, then the remaining backends in the first item's ring order —
// after the target, cache affinity is already lost, so any order works,
// but ring order keeps retries deterministic.
func (rt *Router) groupOrder(mem *membership, target string, items []preparedItem) []string {
	order := []string{target}
	seen := map[string]bool{target: true}
	if len(items) > 0 {
		for _, b := range items[0].order {
			if !seen[b] {
				seen[b] = true
				order = append(order, b)
			}
		}
	}
	for _, b := range mem.backends {
		if !seen[b] {
			seen[b] = true
			order = append(order, b)
		}
	}
	return order
}

// gatherGroup maps one sub-batch answer back to the aggregate by
// original index and counts failover-served items.
func (rt *Router) gatherGroup(out *server.BatchResult[json.RawMessage], att *attempt, items []preparedItem) {
	var sub server.BatchResult[json.RawMessage]
	if err := json.Unmarshal(att.body, &sub); err != nil {
		// Unparsable body: say so — reporting an item count from the
		// zero-valued struct ("0 items for N sent") would misdiagnose a
		// corrupt response as a miscounted one.
		for _, it := range items {
			out.Items[it.index].Status = http.StatusBadGateway
			out.Items[it.index].Error = fmt.Sprintf(
				"backend answered an unparsable sub-batch body: %v", err)
		}
		return
	}
	if len(sub.Items) != len(items) {
		for _, it := range items {
			out.Items[it.index].Status = http.StatusBadGateway
			out.Items[it.index].Error = fmt.Sprintf(
				"backend answered a mismatched sub-batch: %d items for %d sent",
				len(sub.Items), len(items))
		}
		return
	}
	for j, it := range items {
		res := sub.Items[j]
		out.Items[it.index].Status = res.Status
		out.Items[it.index].Result = res.Result
		out.Items[it.index].Error = res.Error
		if it.owner != att.backend {
			rt.met.failovers.Inc(it.owner)
		}
	}
}

// ownersOf reports the distinct ring owners of a key set — test helper
// for asserting scatter grouping.
func (rt *Router) ownersOf(keys []string) []string {
	mem := rt.mem.Load()
	seen := map[string]bool{}
	var out []string
	for _, k := range keys {
		o := mem.ring.owner(k)
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	sort.Strings(out)
	return out
}
