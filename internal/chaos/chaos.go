// Package chaos is the fleet's fault-injection harness: a handler
// middleware (server-side faults) and an http.RoundTripper (client-side
// faults) that misbehave on a configured fraction of requests. Faults
// are drawn from a seeded PRNG, so a chaos run is reproducible: the same
// seed against the same request sequence injects the same faults, which
// lets the soak script and the -race tests assert exact envelopes
// instead of eyeballing flakes.
//
// The injector is configuration, not policy: it never exempts itself
// from a fault it was asked for, except for the probe and metrics
// endpoints (/healthz, /readyz, /metrics) — poisoning those would test
// the prober's hysteresis, not the request path, and would make every
// assertion about routing unreadable.
//
// Spec grammar (comma-separated, all parts optional):
//
//	seed=N            PRNG seed (default 1)
//	latency=P:DUR     with probability P, sleep up to DUR before serving
//	error=P           with probability P, answer 500 (or fail the dial)
//	reset=P           with probability P, drop the connection mid-flight
//	truncate=P        with probability P, abort the response after the
//	                  first body write (truncated NDJSON stream)
//	stall=P:DUR       with probability P, freeze the response for DUR
//	                  after the first body write (stalled stream /
//	                  slow-read backend)
//
// Example: "seed=7,latency=0.05:150ms,error=0.10,reset=0.02".
package chaos

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Injector injects faults per its spec. The zero value injects nothing.
type Injector struct {
	seed     int64
	latencyP float64
	latency  time.Duration
	errorP   float64
	resetP   float64
	truncP   float64
	stallP   float64
	stall    time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// Parse builds an Injector from a spec string. An empty spec returns
// nil — no injector, no overhead.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &Injector{seed: 1}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: %q is not key=value", part)
		}
		var err error
		switch key {
		case "seed":
			inj.seed, err = strconv.ParseInt(val, 10, 64)
		case "latency":
			inj.latencyP, inj.latency, err = parseProbDur(val, true)
		case "error":
			inj.errorP, _, err = parseProbDur(val, false)
		case "reset":
			inj.resetP, _, err = parseProbDur(val, false)
		case "truncate":
			inj.truncP, _, err = parseProbDur(val, false)
		case "stall":
			inj.stallP, inj.stall, err = parseProbDur(val, true)
		default:
			return nil, fmt.Errorf("chaos: unknown fault %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: %w", key, err)
		}
	}
	inj.rng = rand.New(rand.NewSource(inj.seed))
	return inj, nil
}

// parseProbDur parses "P" or "P:DUR". wantDur requires the duration.
func parseProbDur(val string, wantDur bool) (float64, time.Duration, error) {
	probStr, durStr, hasDur := strings.Cut(val, ":")
	p, err := strconv.ParseFloat(probStr, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad probability %q", probStr)
	}
	if !(0 <= p && p <= 1) { // NaN fails every comparison
		return 0, 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	if !hasDur {
		if wantDur {
			return 0, 0, fmt.Errorf("%q needs prob:duration", val)
		}
		return p, 0, nil
	}
	if !wantDur {
		return 0, 0, fmt.Errorf("%q takes no duration", val)
	}
	d, err := time.ParseDuration(durStr)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("bad duration %q", durStr)
	}
	return p, d, nil
}

// roll draws one uniform [0,1) sample from the seeded stream.
func (inj *Injector) roll() float64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.rng.Float64()
}

// jitter draws a duration in (0, d] from the seeded stream.
func (inj *Injector) jitter(d time.Duration) time.Duration {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return time.Duration(inj.rng.Int63n(int64(d))) + 1
}

// exempt lists the endpoints the middleware never faults: probes keep
// answering truthfully (chaos tests routing, not probe hysteresis) and
// metrics stay readable so the harness can assert its envelopes.
func exempt(path string) bool {
	return path == "/healthz" || path == "/readyz" || path == "/metrics"
}

// Middleware wraps an http.Handler with server-side fault injection. A
// nil Injector returns next unchanged.
func (inj *Injector) Middleware(next http.Handler) http.Handler {
	if inj == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if inj.latencyP > 0 && inj.roll() < inj.latencyP {
			select {
			case <-time.After(inj.jitter(inj.latency)):
			case <-r.Context().Done():
				return
			}
		}
		if inj.errorP > 0 && inj.roll() < inj.errorP {
			http.Error(w, `{"error":"chaos: injected fault"}`,
				http.StatusInternalServerError)
			return
		}
		if inj.resetP > 0 && inj.roll() < inj.resetP {
			// ErrAbortHandler drops the connection without a response —
			// the client sees a reset/EOF, exactly a crashed backend.
			panic(http.ErrAbortHandler)
		}
		switch {
		case inj.truncP > 0 && inj.roll() < inj.truncP:
			next.ServeHTTP(&faultWriter{ResponseWriter: w, mode: truncAfterFirst}, r)
		case inj.stallP > 0 && inj.roll() < inj.stallP:
			next.ServeHTTP(&faultWriter{
				ResponseWriter: w, mode: stallAfterFirst,
				stall: inj.jitter(inj.stall), ctx: r.Context(),
			}, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// faultWriter lets the first body write through, then misbehaves: a
// truncating writer aborts the connection (a stream cut mid-payload), a
// stalling writer freezes before the second write (a slow-read backend
// mid-NDJSON).
type faultWriter struct {
	http.ResponseWriter
	mode   faultMode
	stall  time.Duration
	ctx    interface{ Done() <-chan struct{} }
	writes int
}

type faultMode int

const (
	truncAfterFirst faultMode = iota
	stallAfterFirst
)

func (fw *faultWriter) Write(p []byte) (int, error) {
	fw.writes++
	if fw.writes > 1 {
		switch fw.mode {
		case truncAfterFirst:
			panic(http.ErrAbortHandler)
		case stallAfterFirst:
			if fw.stall > 0 {
				select {
				case <-time.After(fw.stall):
				case <-fw.ctx.Done():
				}
				fw.stall = 0 // stall once, not per write
			}
		}
	}
	return fw.ResponseWriter.Write(p)
}

// Flush keeps the wrapped writer streaming-capable — the NDJSON
// endpoint flushes per event, and losing that would serialize the
// stream the chaos run is trying to disturb.
func (fw *faultWriter) Flush() {
	if f, ok := fw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Transport wraps an http.RoundTripper with client-side fault
// injection: latency before the dial, fabricated transport errors
// (error and reset both surface as failed round-trips — the caller
// cannot tell a refused dial from a mid-flight reset, and neither can
// real clients). A nil Injector returns base unchanged.
func (inj *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if inj == nil {
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{inj: inj, base: base}
}

type faultTransport struct {
	inj  *Injector
	base http.RoundTripper
}

func (t *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if exempt(r.URL.Path) {
		return t.base.RoundTrip(r)
	}
	inj := t.inj
	if inj.latencyP > 0 && inj.roll() < inj.latencyP {
		select {
		case <-time.After(inj.jitter(inj.latency)):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	if p := inj.errorP + inj.resetP; p > 0 && inj.roll() < p {
		return nil, fmt.Errorf("chaos: injected connection fault to %s", r.URL.Host)
	}
	return t.base.RoundTrip(r)
}
