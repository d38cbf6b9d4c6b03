// Command vabufd serves variation-aware buffer insertion over HTTP/JSON:
// a long-running daemon that amortizes benchmark and variation-model
// construction across requests (LRU caches) and runs insertions on a
// bounded worker pool.
//
// Endpoints:
//
//	POST /v1/insert       run buffer insertion (see internal/server.InsertRequest)
//	POST /v1/insert:batch up to -max-batch insertions as one aggregate call
//	POST /v1/yield        insertion + yield analysis, optional Monte Carlo
//	POST /v1/yield:batch  batched yield runs
//	POST /v1/yield:stream insertion + adaptive Monte Carlo streamed as
//	                      newline-delimited JSON progress events and a final result
//	POST /v1/cache/lookup peer cache read: answer a cached result to a
//	                      vabufr rescuing a moved key (epoch-checked,
//	                      fingerprint recomputed; 404 on a miss)
//	GET  /v1/benchmarks   list the built-in Table 1 benchmark names
//	GET  /healthz         liveness probe (200 while the process is up)
//	GET  /readyz          readiness probe (503 while draining, restoring a
//	                      snapshot, or shedding under sustained overload)
//	GET  /metrics         counters, latency histograms, per-class queue and cache stats
//
// The job queue has two priority classes: interactive (default) and
// sweep (batch items and requests with "priority": "sweep"). Dispatch
// prefers interactive work; every -sweep-every-th dispatch takes the
// sweep queue so bulk batches cannot starve.
//
// Overload (full job queue) answers 429 with Retry-After; per-request
// deadlines map ErrTimeout to 504 and candidate-capacity overruns
// (ErrCapacity) to 413. SIGINT/SIGTERM trigger a graceful shutdown that
// drains in-flight jobs and — with -snapshot set — writes a final cache
// snapshot that the next boot restores for a warm start.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"vabuf/internal/chaos"
	"vabuf/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8577", "listen address")
		workers    = flag.Int("workers", 0, "insertion workers (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "interactive job-queue depth behind the workers")
		sweepQueue = flag.Int("sweep-queue", 256, "sweep-class (batch) job-queue depth")
		sweepEvery = flag.Int("sweep-every", 4,
			"class weight: every Nth dispatch prefers the sweep queue (starvation guard; 1 disables)")
		maxBatch    = flag.Int("max-batch", 256, "max items per batch request")
		treeCache   = flag.Int("tree-cache", 32, "parsed/generated tree LRU entries")
		modelCache  = flag.Int("model-cache", 32, "variation-model LRU entries")
		resultCache = flag.Int("result-cache", 128,
			"content-addressed result-cache entries; repeats of a completed insert/yield request answer from memory (0 disables)")
		subtreeCache = flag.Int("subtree-cache-mb", 64,
			"subtree DP-frontier cache budget in MiB, shared across runs; lightly edited trees recompute only changed branches (0 disables)")
		timeout = flag.Duration("timeout", 2*time.Minute,
			"default per-request insertion deadline (0 = none)")
		maxBody     = flag.Int64("max-body", 8<<20, "request body limit in bytes")
		enablePprof = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
		snapshot    = flag.String("snapshot", "",
			"cache snapshot file: restored on boot, rewritten on graceful drain (empty = no persistence)")
		snapshotEvery = flag.Duration("snapshot-every", 0,
			"also rewrite -snapshot periodically, bounding warm-up lost to a crash (0 = only on drain)")
		shedAfter = flag.Duration("shed-after", 10*time.Second,
			"reject sweep-class work early (503) once the job queue has been saturated this long (0 disables)")
		instance = flag.String("instance", "",
			"instance id surfaced in /metrics, /readyz and the Vabuf-Instance header (empty = hostname:port, resolved after listen)")
		epoch = flag.String("epoch", "",
			"cache epoch mixed into result fingerprints; bump it (fleet-wide) to invalidate every cached result after a library or model change")
		chaosSpec = flag.String("chaos", "",
			"fault-injection spec for chaos testing, e.g. 'seed=7,error=0.1,latency=0.05:150ms' (see internal/chaos; empty disables)")
	)
	flag.Parse()

	injector, err := chaos.Parse(*chaosSpec)
	if err != nil {
		log.Fatalf("vabufd: -chaos: %v", err)
	}
	if injector != nil {
		log.Printf("vabufd: CHAOS ENABLED: %s", *chaosSpec)
	}

	resultCacheSize := *resultCache
	if resultCacheSize == 0 {
		resultCacheSize = -1 // flag 0 = off; Config 0 = default, negative = off
	}
	subtreeCacheMB := *subtreeCache
	if subtreeCacheMB == 0 {
		subtreeCacheMB = -1 // same convention as -result-cache
	}
	srv := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		SweepQueueDepth: *sweepQueue,
		SweepEvery:      *sweepEvery,
		MaxBatchItems:   *maxBatch,
		TreeCacheSize:   *treeCache,
		ModelCacheSize:  *modelCache,
		ResultCacheSize: resultCacheSize,
		SubtreeCacheMB:  subtreeCacheMB,
		DefaultTimeout:  *timeout,
		MaxRequestBytes: *maxBody,
		EnablePprof:     *enablePprof,
		SnapshotPath:    *snapshot,
		SnapshotEvery:   *snapshotEvery,
		ShedAfter:       *shedAfter,
		Instance:        *instance,
		Epoch:           *epoch,
	})
	if *snapshot != "" {
		// Two instances sharing one snapshot path would silently clobber
		// each other's drain-time writes; refuse to start instead.
		release, err := server.LockSnapshot(*snapshot)
		if err != nil {
			log.Fatalf("vabufd: %v", err)
		}
		defer release()
		if _, err := os.Stat(*snapshot); err == nil {
			// Restore in the background so the listener comes up
			// immediately; /readyz reports 503 restoring until done.
			srv.RestoreSnapshotAsync(*snapshot, func(stats server.RestoreStats, err error) {
				if err != nil {
					log.Printf("vabufd: snapshot restore: %v (serving cold)", err)
					return
				}
				log.Printf("vabufd: snapshot restored: %d trees, %d models, %d results, %d skipped",
					stats.Trees, stats.Models, stats.Results, stats.Skipped)
			})
		} else if !errors.Is(err, os.ErrNotExist) {
			log.Printf("vabufd: snapshot %s unreadable: %v (serving cold)", *snapshot, err)
		}
	}

	// Install the signal handler before the listener comes up: once the
	// daemon is reachable (and has logged its address), SIGTERM must take
	// the graceful path — never the runtime's default kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before logging so -addr with port 0 reports the bound port —
	// the kill-and-restart integration test (and local tooling) parses it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("vabufd: listen: %v", err)
	}
	if *instance == "" {
		// Default the instance id to hostname:port — only knowable after
		// the listener binds (-addr may use port 0).
		host, _ := os.Hostname()
		if host == "" {
			host = "vabufd"
		}
		if _, port, err := net.SplitHostPort(ln.Addr().String()); err == nil {
			srv.SetInstanceID(net.JoinHostPort(host, port))
		} else {
			srv.SetInstanceID(host)
		}
	}
	hs := &http.Server{
		Handler:           injector.Middleware(srv.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	nWorkers := *workers
	if nWorkers < 1 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	log.Printf("vabufd listening on %s (%d workers, queue %d+%d sweep, 1-in-%d sweep dispatch, max batch %d, tree cache %d, model cache %d)",
		ln.Addr(), nWorkers, *queue, *sweepQueue, *sweepEvery, *maxBatch, *treeCache, *modelCache)

	select {
	case err := <-errc:
		log.Fatalf("vabufd: %v", err)
	case <-ctx.Done():
	}

	// Flip readiness first so probes steer traffic away, then stop the
	// listener, then drain the pool and write the final snapshot.
	log.Print("vabufd: shutdown signal; draining in-flight jobs")
	srv.StartDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("vabufd: shutdown: %v", err)
	}
	srv.Close()
	log.Print("vabufd: drained, exiting")
}
