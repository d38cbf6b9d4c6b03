// Command vabufr fronts a fleet of vabufd instances with a
// consistent-hash router. It owns no DP engine — only routing: each
// request's content-addressed fingerprint picks the one backend whose
// result cache should own it, so N instances behave like one big cache
// instead of N cold ones.
//
//	POST /v1/insert        proxied to the fingerprint's ring owner
//	POST /v1/yield         (failover walks the ring when the owner is down)
//	POST /v1/yield:stream  proxied streaming; failover up to first byte
//	POST /v1/insert:batch  split per owner, scatter-gathered in order
//	POST /v1/yield:batch
//	GET  /v1/benchmarks    proxied to any healthy backend
//	GET  /healthz          liveness (200 while the router is up)
//	GET  /readyz           503 until at least one backend probes healthy
//	GET  /metrics          per-backend counters, failovers, probe state,
//	                       scatter fan-out histogram, peer lookups
//	GET/POST /admin/backends  (with -admin) inspect/replace membership
//
// A background poller probes each backend's /readyz on a jittered
// interval with hysteresis; a failed proxy attempt marks the backend
// down immediately. A key whose owner changed (a ring rebuild moved it,
// or its owner is down) is first looked up synchronously at the backend
// whose cache should hold it (POST /v1/cache/lookup) before being
// recomputed cold.
//
// Membership is dynamic: with -backends-file, SIGHUP re-reads the file
// and rebuilds the ring in place — in-flight requests finish against
// the old view, new backends take traffic once their probes pass, and
// removed backends' probers are retired.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vabuf/internal/chaos"
	"vabuf/internal/router"
)

// parseBackendList splits a backend list on commas, whitespace, and
// newlines, ignoring blanks and #-comment lines — the shared format of
// the -backends flag and the -backends-file contents.
func parseBackendList(s string) []string {
	var urls []string
	for _, line := range strings.Split(s, "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		for _, b := range strings.FieldsFunc(line, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == '\r'
		}) {
			if b = strings.TrimSpace(b); b != "" {
				urls = append(urls, strings.TrimRight(b, "/"))
			}
		}
	}
	return urls
}

// readBackendsFile loads and parses a -backends-file.
func readBackendsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	urls := parseBackendList(string(data))
	if len(urls) == 0 {
		return nil, fmt.Errorf("%s contains no backend URLs", path)
	}
	return urls, nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8576", "listen address")
		backends = flag.String("backends", "",
			"comma-separated vabufd base URLs forming the ring, e.g. http://127.0.0.1:8577,http://127.0.0.1:8578 (exactly one of -backends/-backends-file)")
		backendsFile = flag.String("backends-file", "",
			"file listing vabufd base URLs (one per line or comma/space separated, # comments); SIGHUP re-reads it and rebuilds the ring")
		vnodes = flag.Int("vnodes", 0,
			"virtual nodes per backend on the hash ring (0 = 64)")
		probeEvery = flag.Duration("probe-every", 2*time.Second,
			"base /readyz probe interval per backend (jittered ±30%)")
		probeTimeout = flag.Duration("probe-timeout", time.Second, "per-probe deadline")
		failAfter    = flag.Int("fail-after", 2,
			"consecutive probe failures before a backend is marked down (proxy errors mark down immediately)")
		recoverAfter = flag.Int("recover-after", 2,
			"consecutive probe successes before a down backend takes traffic again")
		maxBody       = flag.Int64("max-body", 8<<20, "request body limit in bytes")
		lookupTimeout = flag.Duration("lookup-timeout", 500*time.Millisecond,
			"deadline for one synchronous peer cache lookup (negative disables peer lookup)")
		lookupWindow = flag.Duration("lookup-window", time.Minute,
			"how long after a ring rebuild moved keys are still looked up at their previous owner")
		admin = flag.Bool("admin", false,
			"expose GET/POST /admin/backends for runtime membership changes")
		retryBudget = flag.Float64("retry-budget", 0,
			"per-backend retry-budget ratio: tokens earned per first attempt; each manufactured request (failover, hedge, lookup) pays one token (0 = 0.1, negative disables)")
		retryBurst = flag.Int("retry-burst", 0,
			"retry token-bucket cap and initial balance per backend (0 = 10)")
		hedgeAfter = flag.Duration("hedge-after", 0,
			"hedge idempotent single requests after max(this, observed p95) with a budgeted duplicate to the next backend (0 disables)")
		breakerFailures = flag.Int("breaker-failures", 0,
			"consecutive request failures that open a backend's circuit breaker (0 = 5, negative disables)")
		breakerCooldown = flag.Duration("breaker-cooldown", 0,
			"open-breaker duration between half-open probe requests (0 = 5s)")
		chaosSpec = flag.String("chaos", "",
			"client-side fault-injection spec for chaos testing, e.g. 'seed=7,reset=0.05' (see internal/chaos; empty disables)")
	)
	flag.Parse()

	injector, err := chaos.Parse(*chaosSpec)
	if err != nil {
		log.Fatalf("vabufr: -chaos: %v", err)
	}
	var client *http.Client
	if injector != nil {
		log.Printf("vabufr: CHAOS ENABLED: %s", *chaosSpec)
		client = &http.Client{Transport: injector.Transport(nil)}
	}

	if (*backends == "") == (*backendsFile == "") {
		log.Fatal("vabufr: exactly one of -backends or -backends-file is required")
	}
	var urls []string
	if *backendsFile != "" {
		var err error
		urls, err = readBackendsFile(*backendsFile)
		if err != nil {
			log.Fatalf("vabufr: reading -backends-file: %v", err)
		}
	} else {
		urls = parseBackendList(*backends)
	}
	if len(urls) == 0 {
		log.Fatal("vabufr: backend list is empty")
	}

	rt, err := router.New(router.Config{
		Backends:        urls,
		VNodes:          *vnodes,
		ProbeInterval:   *probeEvery,
		ProbeTimeout:    *probeTimeout,
		FailAfter:       *failAfter,
		RecoverAfter:    *recoverAfter,
		MaxRequestBytes: *maxBody,
		LookupTimeout:   *lookupTimeout,
		LookupWindow:    *lookupWindow,
		RetryBudget:     *retryBudget,
		RetryBurst:      *retryBurst,
		HedgeAfter:      *hedgeAfter,
		BreakerFailures: *breakerFailures,
		BreakerCooldown: *breakerCooldown,
		EnableAdmin:     *admin,
		Client:          client,
	})
	if err != nil {
		log.Fatalf("vabufr: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP re-reads -backends-file and rebuilds the ring. Without a
	// file there is nothing to re-read; the signal is acknowledged and
	// ignored so an orchestrator's blanket HUP never kills the router.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *backendsFile == "" {
				log.Print("vabufr: SIGHUP ignored (no -backends-file)")
				continue
			}
			next, err := readBackendsFile(*backendsFile)
			if err != nil {
				log.Printf("vabufr: SIGHUP reload failed, keeping current ring: %v", err)
				continue
			}
			if err := rt.Reload(next); err != nil {
				log.Printf("vabufr: SIGHUP reload rejected, keeping current ring: %v", err)
			}
		}
	}()

	// Listen before logging so -addr with port 0 reports the bound port —
	// scripts/fleet.sh and the integration tests parse this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("vabufr: listen: %v", err)
	}
	hs := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("vabufr listening on %s (%d backends, %d vnodes each)",
		ln.Addr(), len(urls), func() int {
			if *vnodes > 0 {
				return *vnodes
			}
			return 64
		}())

	select {
	case err := <-errc:
		// Not log.Fatalf: the probers must stop before exit.
		log.Printf("vabufr: serve: %v", err)
		rt.Close()
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Print("vabufr: shutdown signal; closing")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("vabufr: shutdown: %v", err)
	}
	rt.Close()
	log.Print("vabufr: exiting")
}
