// Package server implements vabufd, a long-running buffer-insertion
// service over the vabuf library. It amortizes the expensive per-request
// setup — benchmark generation, variation-grid and source construction —
// across requests with LRU caches, bounds concurrency with a fixed worker
// pool behind a bounded queue (overload answers 429 instead of queuing
// unboundedly), maps the library's capacity guards to HTTP statuses
// (ErrTimeout → 504, ErrCapacity → 413), and reports counters, latency
// histograms, queue depth, and cache hit rates on GET /metrics.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"vabuf"
)

// Config sizes one Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of insertion workers; <1 selects GOMAXPROCS.
	Workers int
	// QueueDepth is the number of interactive waiting slots behind the
	// workers; <=0 selects 64. A full queue answers 429 with Retry-After.
	QueueDepth int
	// SweepQueueDepth is the number of waiting slots of the sweep class
	// (batch items and requests with "priority": "sweep"); <=0 selects
	// 256, enough to admit one full default-size batch.
	SweepQueueDepth int
	// SweepEvery is the starvation guard of the two-class queue: every
	// SweepEvery-th dispatch prefers the sweep class even under
	// interactive load. <=0 selects 4 (one in four); 1 disables the
	// guard (sweep runs only when no interactive job waits).
	SweepEvery int
	// MaxBatchItems bounds the items of one batch request; <=0 selects 256.
	MaxBatchItems int
	// TreeCacheSize and ModelCacheSize bound the two LRU caches
	// (entries); <=0 selects 32.
	TreeCacheSize  int
	ModelCacheSize int
	// ResultCacheSize bounds the content-addressed result cache
	// (entries): completed /v1/insert and /v1/yield responses keyed by
	// request fingerprint, answered from memory on an exact repeat.
	// 0 selects 128; negative disables the cache (request coalescing
	// stays on — it needs no storage).
	ResultCacheSize int
	// SubtreeCacheMB bounds the shared subtree DP-frontier cache
	// (megabytes): every variation-aware run memoizes pruned per-subtree
	// candidate frontiers keyed by canonical subtree fingerprint, so an
	// ECO re-insert of a lightly edited tree recomputes only the changed
	// branches. 0 selects 64 MiB; negative disables the cache.
	SubtreeCacheMB int
	// DefaultTimeout caps runs whose request omits timeout_ms; 0 means
	// no server-side limit. Either limit bounds the run's context, next to
	// any propagated request deadline.
	DefaultTimeout time.Duration
	// MaxRequestBytes bounds request bodies; <=0 selects 8 MiB.
	MaxRequestBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiling endpoints expose internals and cost CPU, so
	// they are opt-in via the vabufd -pprof flag.
	EnablePprof bool
	// SnapshotPath, when set, is the cache snapshot file: Close writes a
	// final snapshot there after draining, and the -snapshot-every ticker
	// (SnapshotEvery) refreshes it while serving. Restore-on-boot is the
	// caller's move (RestoreSnapshot / RestoreSnapshotAsync).
	SnapshotPath string
	// SnapshotEvery, when positive together with SnapshotPath, writes a
	// periodic snapshot so even a crash (no graceful drain) loses at most
	// one interval of cache warm-up.
	SnapshotEvery time.Duration
	// ShedAfter is the sustained-saturation window of the shed gate: once
	// the job queue has been saturated for this long, sweep-class work is
	// rejected early with 503 + Retry-After and /readyz reports not-ready,
	// while interactive work keeps its normal admission path. 0 disables
	// shedding.
	ShedAfter time.Duration
	// Epoch is the cache epoch: a buffer-library / device-model version
	// string mixed into every result fingerprint. Bumping it (the vabufd
	// -epoch flag) invalidates all previously cached results fleet-wide —
	// restored snapshot entries keyed under the old epoch simply never
	// hit again. Empty means the built-in library generation.
	Epoch string
	// Instance is the instance identity surfaced in /metrics, the
	// /readyz body, and the Vabuf-Instance response header so router
	// metrics and failover logs can attribute per-backend. vabufd
	// defaults it to hostname:port once the listener is bound
	// (SetInstanceID).
	Instance string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SweepQueueDepth <= 0 {
		c.SweepQueueDepth = 256
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 4
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.TreeCacheSize <= 0 {
		c.TreeCacheSize = 32
	}
	if c.ModelCacheSize <= 0 {
		c.ModelCacheSize = 32
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 128
	}
	if c.SubtreeCacheMB == 0 {
		c.SubtreeCacheMB = 64
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	return c
}

// Server is the vabufd HTTP service. Create with New, expose via
// Handler, and Close after the HTTP listener has shut down.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	pool   *workerPool
	trees  *lruCache
	models *lruCache
	// results is the content-addressed result cache (nil when disabled);
	// flights coalesces concurrent identical requests onto one job.
	results *lruCache
	// subtrees is the shared subtree DP-frontier cache (nil when
	// disabled): one instance serves every run, so repeat and
	// lightly-edited trees reuse each other's pruned frontiers.
	subtrees *vabuf.SubtreeCache
	flights  flightGroup
	met      *metrics
	state    serverState
	// instance holds the instance identity (a string); vabufd overwrites
	// the configured value with hostname:port after binding the listener.
	instance atomic.Value

	closeOnce  sync.Once
	tickerStop chan struct{}
	tickerDone chan struct{}

	// faults, when set, injects failures at instrumented points — test
	// only, see faults.go. Production code never assigns it.
	faults *faultHooks
}

// New builds a Server and starts its worker pool (and, when configured,
// the periodic snapshot writer).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		pool:   newWorkerPool(cfg.Workers, cfg.QueueDepth, cfg.SweepQueueDepth, cfg.SweepEvery),
		trees:  newLRU(cfg.TreeCacheSize),
		models: newLRU(cfg.ModelCacheSize),
		met:    newMetrics(),
	}
	s.instance.Store(cfg.Instance)
	if cfg.ResultCacheSize > 0 {
		s.results = newLRU(cfg.ResultCacheSize)
	}
	if cfg.SubtreeCacheMB > 0 {
		s.subtrees = vabuf.NewSubtreeCache(int64(cfg.SubtreeCacheMB) << 20)
	}
	for _, kind := range []string{"insert", "yield"} {
		ep := "/v1/" + kind
		s.mux.HandleFunc("POST "+ep, s.instrument(ep, s.single(kind, ep)))
		s.mux.HandleFunc("POST "+ep+":batch", s.instrument(ep+":batch", s.batch(kind, ep+":batch")))
	}
	s.mux.HandleFunc("POST /v1/yield:stream", s.yieldStream)
	s.mux.HandleFunc("POST /v1/cache/lookup", s.instrument("/v1/cache/lookup", s.cacheLookup))
	s.mux.HandleFunc("GET /v1/benchmarks", s.instrument("/v1/benchmarks", s.benchmarks))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.healthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.readyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.metricsHandler))
	if cfg.EnablePprof {
		// The server owns its mux, so the pprof handlers are mounted
		// explicitly instead of through net/http/pprof's init side effect.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if cfg.SnapshotPath != "" && cfg.SnapshotEvery > 0 {
		s.tickerStop = make(chan struct{})
		s.tickerDone = make(chan struct{})
		go s.snapshotLoop()
	}
	return s
}

// snapshotLoop periodically refreshes the cache snapshot until Close.
func (s *Server) snapshotLoop() {
	defer close(s.tickerDone)
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.SaveSnapshot(s.cfg.SnapshotPath); err != nil {
				log.Printf("server: periodic snapshot: %v", err)
			}
		case <-s.tickerStop:
			return
		}
	}
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// SetInstanceID overrides the instance identity after construction —
// vabufd calls it with hostname:port once the listener is bound (before
// serving begins), so an -addr of :0 still reports the real port.
func (s *Server) SetInstanceID(id string) { s.instance.Store(id) }

// InstanceID returns the instance identity ("" when unset).
func (s *Server) InstanceID() string {
	id, _ := s.instance.Load().(string)
	return id
}

// StartDrain flips the server into the draining state: /readyz answers
// 503 and every new job submission is refused with 503 + Retry-After,
// while jobs already queued or running finish normally. Call it before
// http.Server.Shutdown so requests racing the listener teardown get a
// clean retry signal instead of a dropped connection.
func (s *Server) StartDrain() { s.state.draining.Store(true) }

// Close gracefully shuts the service down: it starts the drain, blocks
// until every queued and in-flight job has finished, and — when
// Config.SnapshotPath is set — writes a final cache snapshot so the
// next boot starts warm. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.StartDrain()
		if s.tickerStop != nil {
			close(s.tickerStop)
			<-s.tickerDone
		}
		s.pool.close()
		if s.cfg.SnapshotPath != "" {
			if err := s.SaveSnapshot(s.cfg.SnapshotPath); err != nil {
				log.Printf("server: final snapshot: %v", err)
			}
		}
	})
}

// instrument wraps an endpoint: it enforces the propagated request
// deadline (a spent budget answers 504 before the handler runs; a live
// one becomes the request context's deadline), records the request
// counter, stamps the identity headers, attaches Retry-After to
// overload/unavailable responses, and writes the JSON body.
func (s *Server) instrument(endpoint string, h func(*http.Request) (int, any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		dr, cancel, doomed := WithRequestDeadline(r)
		if doomed {
			s.met.deadlineRejected.Inc(endpoint)
			s.writeJSON(w, endpoint, http.StatusGatewayTimeout, errBody(errDeadlineSpent))
			return
		}
		defer cancel()
		status, body := h(dr)
		s.writeJSON(w, endpoint, status, body)
	}
}

// writeJSON answers a request with an indented JSON body: it records the
// request counter, stamps the identity headers, and attaches Retry-After
// to overload/unavailable responses.
func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, status int, body any) {
	s.met.requests.Record(endpoint, status)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.identityHeaders(w)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// Sentinel errors of the request path.
var (
	errOverloaded    = errors.New("server overloaded: job queue full")
	errDraining      = errors.New("server is draining; retry against another instance")
	errShedding      = errors.New("server is shedding sweep work under sustained overload")
	errDeadlineSpent = errors.New("request deadline already spent before admission")
)

// StatusClientClosed mirrors nginx's non-standard 499 "client closed
// request" for requests abandoned while vabufd or vabufr served them.
const StatusClientClosed = 499

func errBody(err error) ErrorResult { return ErrorResult{Error: err.Error()} }

// ReadBody reads the request body, answering 413 past limit and 400 on a
// failed read. w, when non-nil, closes the connection of an overrun.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		status, err := bodyFailure(fmt.Errorf("reading request: %w", err))
		return nil, status, err
	}
	return body, 0, nil
}

// parseBody parses a single request of kind straight from the body.
func (s *Server) parseBody(r *http.Request, kind string) (Request, int, error) {
	req, err := parseRequest(kind, nil, http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		status, err := bodyFailure(err)
		return nil, status, err
	}
	return req, 0, nil
}

// bodyFailure maps a body read or parse error to its answer: 413 for a
// body over its limit, 400 otherwise.
func bodyFailure(err error) (int, error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf(
			"request body exceeds the %d-byte limit", tooBig.Limit)
	}
	return http.StatusBadRequest, err
}

// preparedRun is everything a worker needs for one insertion job.
type preparedRun struct {
	tree     *vabuf.Tree
	opts     vabuf.Options
	timeout  time.Duration         // run time limit (timeout_ms or DefaultTimeout; 0 = none)
	model    *vabuf.VariationModel // nil for deterministic (nom) runs
	treeHit  bool
	modelHit bool
}

// run executes the insertion on the calling goroutine (a pool worker)
// under ctx bounded by the run's time limit, so abandoned requests cancel
// the DP and a spent limit or request deadline ends it with ErrTimeout.
func (p *preparedRun) run(ctx context.Context) (*vabuf.Result, time.Duration, error) {
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	opts := p.opts
	opts.Context = ctx
	opts.Model = p.model
	t0 := time.Now()
	res, err := vabuf.Insert(p.tree, opts)
	return res, time.Since(t0), err
}

// prepare resolves the tree and model through the caches and assembles
// the insertion options. Errors are client errors (400).
func (s *Server) prepare(req *InsertRequest) (*preparedRun, error) {
	tree, treeHit, err := s.loadTree(req)
	if err != nil {
		return nil, err
	}
	opts := req.Options(vabuf.DefaultLibrary())
	opts.SubtreeCache = s.subtrees
	p := &preparedRun{tree: tree, opts: opts, timeout: s.cfg.DefaultTimeout, treeHit: treeHit}
	if req.TimeoutMS > 0 {
		p.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if req.Algo != "nom" {
		entry, modelHit, err := s.loadModel(req, tree)
		if err != nil {
			return nil, err
		}
		p.model = entry.model
		p.modelHit = modelHit
	}
	return p, nil
}

// treeCacheKey is the tree-LRU key of the request's tree: built-in
// benchmarks by name, inline rctree text by content hash. The snapshot
// file stores these keys verbatim.
func treeCacheKey(req *InsertRequest) string {
	if req.Bench != "" {
		return "bench:" + req.Bench
	}
	sum := sha256.Sum256([]byte(req.Tree))
	return "text:" + hex.EncodeToString(sum[:])
}

// loadTree resolves the request's tree through the LRU cache. Cached
// trees are shared across concurrent runs — insertion never mutates them.
func (s *Server) loadTree(req *InsertRequest) (*vabuf.Tree, bool, error) {
	v, hit, err := s.trees.do(treeCacheKey(req), func() (any, error) { return req.BuildTree() })
	if err != nil {
		return nil, false, err
	}
	return v.(*vabuf.Tree), hit, nil
}

// buildModelEntry constructs a variation model from its recipe and
// resolves every buffer site's deviation in post order — the order in
// which Insert on a fresh model allocates the per-site random sources —
// so the published model is read-only and gives every tree with this
// layout the source IDs a fresh model would. The request path and the
// snapshot-restore path share it, so a restored model is bit-identical
// to one built for a live request.
func buildModelEntry(tree *vabuf.Tree, treeKey, algo string, budget float64, hetero bool) (*modelEntry, error) {
	model, err := vabuf.NewVariationModel(ModelConfig(tree, algo, budget, hetero))
	if err != nil {
		return nil, err
	}
	for _, id := range tree.PostOrder() {
		if n := tree.Node(id); n.BufferOK {
			model.Deviation(int(id), n.Loc)
		}
	}
	entry := &modelEntry{model: model, algo: algo, budget: budget, hetero: hetero}
	entry.treeKey.Store(&treeKey)
	return entry, nil
}

// modelCacheKey is the model-LRU key of a tree under (algo, budget,
// heterogeneity): the tree's site layout, i.e. the die its default model
// config covers plus the post-order (node ID, location) of every buffer
// site. That is exactly what decides a model's lazily allocated source
// IDs and each site's deviation form, so trees with equal keys get
// bit-identical results from one shared model.
func modelCacheKey(tree *vabuf.Tree, algo string, budget float64, hetero bool) string {
	die := vabuf.DefaultModelConfig(tree).Die
	buf := make([]byte, 0, 64+16*tree.Len())
	for _, v := range []float64{die.Min.X, die.Min.Y, die.Max.X, die.Max.Y} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, id := range tree.PostOrder() {
		if n := tree.Node(id); n.BufferOK {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Loc.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Loc.Y))
		}
	}
	sum := sha256.Sum256(buf)
	return fmt.Sprintf("layout:%s|algo=%s|budget=%g|hetero=%t",
		hex.EncodeToString(sum[:]), algo, budget, hetero)
}

// loadModel resolves the variation model for (tree layout, algo, budget,
// heterogeneity) through the LRU cache, skipping the grid, source and
// deviation construction on a hit. A hit records the request's tree as
// the entry's snapshot recipe.
func (s *Server) loadModel(req *InsertRequest, tree *vabuf.Tree) (*modelEntry, bool, error) {
	treeKey := treeCacheKey(req)
	key := modelCacheKey(tree, req.Algo, req.Budget, req.heterogeneous())
	v, hit, err := s.models.do(key, func() (any, error) {
		return buildModelEntry(tree, treeKey, req.Algo, req.Budget, req.heterogeneous())
	})
	if err != nil {
		return nil, false, err
	}
	entry := v.(*modelEntry)
	if hit {
		entry.treeKey.Store(&treeKey)
	}
	return entry, hit, nil
}

// execute submits fn to the pool under the given class as a guarded
// job and waits for it or for the client to go away. A non-zero status
// reports the failure, fn's own included. Submission is refused with
// 503 while draining, and sweep-class submission with 503 while the
// shed gate is active.
func (s *Server) execute(ctx context.Context, endpoint string, class jobClass, fn func() (int, error)) (int, error) {
	if s.isDraining() {
		return http.StatusServiceUnavailable, errDraining
	}
	if class == classSweep && s.shedding() {
		s.met.shed.Inc(endpoint)
		return http.StatusServiceUnavailable, errShedding
	}
	if err := ctx.Err(); err != nil {
		// Dead on arrival — the deadline (or the client) gave up between
		// admission and submit. Refuse before consuming a queue slot.
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.deadlineRejected.Inc(endpoint)
		}
		return ctxFailure(ctx, "deadline spent before enqueue")
	}
	done := make(chan struct{})
	var status int
	var err error
	job := s.guardedJob(ctx, endpoint, class, fn, func(st int, e error) {
		status, err = st, e
		close(done)
	})
	if !s.pool.trySubmit(job, class) {
		return http.StatusTooManyRequests, errOverloaded
	}
	select {
	case <-done:
		return status, err
	case <-ctx.Done():
		// The job still runs (or is dropped) on its worker; its finish
		// callback owns status and err, which are not read on this arm.
		return ctxFailure(ctx, "deadline expired")
	}
}

// guardedJob wraps fn as a pool job of class. fn runs under recover(): a
// panic becomes a 500 for this job only and the worker survives. At
// dequeue the job checks ctx — the request's deadline-aware context —
// and a job whose deadline passed (or whose client vanished) while it
// queued is dropped without running (504 or 499): its requester has
// been answered, so the run could only burn a worker live requests
// need. finish runs last, exactly once, with fn's outcome or the
// panic's or the drop's.
func (s *Server) guardedJob(ctx context.Context, endpoint string, class jobClass,
	fn func() (int, error), finish func(status int, err error)) func() {
	return func() {
		var status int
		var err error
		defer func() {
			if r := recover(); r != nil {
				status, err = http.StatusInternalServerError, s.met.panicRecovered(endpoint, r)
			}
			finish(status, err)
		}()
		if ctx.Err() != nil {
			s.pool.classes[class].expired.Inc()
			s.met.deadlineExpired.Inc(endpoint)
			status, err = ctxFailure(ctx, "deadline expired while queued")
			return
		}
		s.faultBeforeJob(endpoint)
		status, err = fn()
	}
}

// ctxFailure classifies a dead request context: 504 prefixed with what
// when its deadline expired, 499 when the client went away.
func ctxFailure(ctx context.Context, what string) (int, error) {
	if err := ctx.Err(); errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, fmt.Errorf("%s: %w", what, err)
	}
	return StatusClientClosed, fmt.Errorf("client closed request: %w", ctx.Err())
}

// statusForRunError maps an insertion failure to an HTTP status: the
// Table 2 guards become 504/413, a client that went away 499; anything
// else stems from the request's tree or options and is a 400. The core
// decides timeout vs cancel from the run context's error, so a spent
// request deadline is a 504 on every path.
func statusForRunError(err error) int {
	switch {
	case errors.Is(err, vabuf.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, vabuf.ErrCapacity):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, vabuf.ErrCanceled):
		return StatusClientClosed
	default:
		return http.StatusBadRequest
	}
}

// runPrepared executes one prepared insertion on the calling goroutine
// (a pool worker) and assembles the result DTO; it also returns the
// library result for yield analysis. A non-zero status reports the
// failure.
func (s *Server) runPrepared(ctx context.Context, req *InsertRequest,
	p *preparedRun) (*InsertResult, *vabuf.Result, int, error) {
	res, elapsed, err := p.run(ctx)
	if err != nil {
		return nil, nil, statusForRunError(err), err
	}
	s.met.recordRun(req.Algo, p.opts.Rule.String(), elapsed, res)
	out := NewInsertResult(p.tree, p.opts.Library, req.Algo, p.opts, res, elapsed, req.IncludeAssignment)
	out.Bench = req.Bench
	out.TreeCacheHit = p.treeHit
	out.ModelCacheHit = p.modelHit
	return &out, res, 0, nil
}

// runPreparedYield is runPrepared plus yield analysis and optional
// Monte-Carlo validation. onEstimate, when non-nil, receives
// adaptive-sampler progress (streaming only).
func (s *Server) runPreparedYield(ctx context.Context, req *YieldRequest,
	p *preparedRun, onEstimate func(vabuf.MCEstimate) bool) (*YieldResult, int, error) {
	insert, res, status, err := s.runPrepared(ctx, &req.InsertRequest, p)
	if err != nil {
		return nil, status, err
	}
	report, err := vabuf.EvaluateYield(p.tree, p.opts.Library, res.Assignment, p.model, req.Quantile)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	mc, err := s.runMonteCarlo(req, p, res.Assignment, onEstimate)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return &YieldResult{
		Insert:     *insert,
		MeanPS:     report.Mean,
		SigmaPS:    report.Sigma,
		YieldRATPS: report.YieldRAT,
		MonteCarlo: mc,
	}, 0, nil
}

func (r *InsertRequest) run(s *Server, ctx context.Context, p *preparedRun) (any, int, error) {
	out, _, status, err := s.runPrepared(ctx, r, p)
	if err != nil {
		return nil, status, err
	}
	return out, 0, nil
}

func (r *YieldRequest) run(s *Server, ctx context.Context, p *preparedRun) (any, int, error) {
	out, status, err := s.runPreparedYield(ctx, r, p, nil)
	if err != nil {
		return nil, status, err
	}
	return out, 0, nil
}

// resultGet answers a request from the content-addressed result cache.
// The cached value is the response body of the cold run, served
// verbatim: warm responses are byte-identical to the original, with the
// cache hit visible only in /metrics.
func (s *Server) resultGet(fp string) (any, bool) {
	if s.results == nil {
		return nil, false
	}
	return s.results.get(fp)
}

// resultStore saves a successful response body under its fingerprint.
func (s *Server) resultStore(fp string, body any) {
	if s.results != nil {
		s.results.add(fp, body)
	}
}

// memoized wraps an endpoint's leader path with the serve-path
// memoization: answer from the result cache when possible, otherwise
// coalesce onto an identical in-flight request, otherwise run leader()
// and publish its outcome. Waiters adopt a leader's 200 verbatim; any
// other outcome (failure, or a leader whose client vanished mid-run)
// makes each waiter retry the full path itself, so errors never fan out
// beyond the requests that truly shared the failing run.
func (s *Server) memoized(r *http.Request, endpoint, fp string,
	leader func() (int, any)) (int, any) {
	for {
		if body, ok := s.resultGet(fp); ok {
			return http.StatusOK, body
		}
		f, isLeader := s.flights.join(fp)
		if !isLeader {
			s.met.coalesced.Inc(endpoint)
			select {
			case <-f.done:
				if f.status == http.StatusOK {
					return http.StatusOK, f.val
				}
				continue
			case <-r.Context().Done():
				// Same classification as execute: a waiter whose budget
				// ran out is a timeout (504), not a hung-up client (499).
				status, err := ctxFailure(r.Context(), "deadline expired awaiting coalesced result")
				return status, errBody(err)
			}
		}
		status, body := leader()
		if status == http.StatusOK {
			s.resultStore(fp, body)
		}
		s.flights.finish(fp, f, status, body)
		return status, body
	}
}

// single returns the handler of /v1/insert or /v1/yield: parse, then
// answer from the result cache, an identical in-flight run, or a new
// pool job under the request's scheduling class.
func (s *Server) single(kind, endpoint string) func(*http.Request) (int, any) {
	return func(r *http.Request) (int, any) {
		req, status, err := s.parseBody(r, kind)
		if err != nil {
			return status, errBody(err)
		}
		return s.memoized(r, endpoint, req.Fingerprint(s.cfg.Epoch), func() (int, any) {
			p, err := s.prepare(req.insert())
			if err != nil {
				return http.StatusBadRequest, errBody(err)
			}
			var out any
			status, err := s.execute(r.Context(), endpoint, classFor(req.insert().Priority), func() (st int, err error) {
				out, st, err = req.run(s, r.Context(), p)
				return st, err
			})
			if err != nil {
				return status, errBody(err)
			}
			return http.StatusOK, out
		})
	}
}

// runMonteCarlo draws the yield request's Monte-Carlo samples over
// req.Parallelism workers, adaptively when mc_tol > 0, and reduces them
// to the DTO. Every worker count draws the same samples. onEstimate,
// when non-nil, observes every chunk of an adaptive run (the streaming
// endpoint's progress feed) and may stop it early.
func (s *Server) runMonteCarlo(req *YieldRequest, p *preparedRun,
	assignment map[vabuf.NodeID]int,
	onEstimate func(vabuf.MCEstimate) bool) (*MonteCarloDTO, error) {
	model := p.model
	if req.MonteCarlo <= 0 || model == nil {
		return nil, nil
	}
	if req.MCTol > 0 || onEstimate != nil {
		samples, est, err := vabuf.MonteCarloRATAdaptive(p.tree, p.opts.Library, assignment,
			model, vabuf.MCAdaptiveOptions{
				MaxSamples: req.MonteCarlo,
				Seed:       req.Seed,
				Workers:    req.Parallelism,
				Quantile:   req.Quantile,
				Tol:        req.MCTol,
				OnEstimate: onEstimate,
			})
		if err != nil {
			return nil, err
		}
		// Reduce via the same two-pass helpers as the fixed-budget path,
		// so a full-budget adaptive run reports numbers bit-identical to
		// the fixed-budget sampler's.
		mc := summarizeSamples(samples, req.Quantile)
		if mc != nil {
			mc.CIHalfWidthPS = est.HalfWidth
			mc.Converged = est.Converged
		}
		return mc, nil
	}
	samples, err := vabuf.MonteCarloRATParallel(p.tree, p.opts.Library, assignment,
		model, req.MonteCarlo, req.Seed, req.Parallelism)
	if err != nil {
		return nil, err
	}
	return summarizeSamples(samples, req.Quantile), nil
}

// summarizeSamples reduces Monte-Carlo RATs to the DTO: sample mean,
// unbiased sigma, and the interpolated empirical q-quantile — via the
// same vabuf facade helpers (stats.MeanVar, stats.Percentile) the
// experiments pipeline uses, so /v1/yield numbers match cmd/experiments
// for identical (n, seed).
func summarizeSamples(samples []float64, q float64) *MonteCarloDTO {
	n := len(samples)
	if n == 0 {
		return nil
	}
	mean, variance := vabuf.MeanVar(samples)
	quantile, err := vabuf.Percentile(samples, q)
	if err != nil {
		// q was validated to lie inside (0, 1) and n > 0; unreachable.
		return nil
	}
	return &MonteCarloDTO{
		Samples:     n,
		MeanPS:      mean,
		SigmaPS:     math.Sqrt(variance),
		QuantileRAT: quantile,
	}
}

func (s *Server) benchmarks(*http.Request) (int, any) {
	return http.StatusOK, BenchmarksResult{Benchmarks: vabuf.Benchmarks()}
}

func (s *Server) healthz(*http.Request) (int, any) {
	return http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.met.start).Seconds(),
	}
}

func (s *Server) metricsHandler(*http.Request) (int, any) {
	doc := s.met.snapshot(s.pool, s.trees, s.models, s.results, s.subtrees,
		s.cfg.TreeCacheSize, s.cfg.ModelCacheSize, s.cfg.ResultCacheSize,
		s.flights.inflight(), s.readyState())
	// Identity of this backend, so fleet dashboards can attribute the
	// counters to an instance and spot epoch skew at a glance.
	doc["instance"] = s.InstanceID()
	doc["epoch"] = s.cfg.Epoch
	return http.StatusOK, doc
}

// identityHeaders stamps the per-backend attribution headers on a
// response: Vabuf-Epoch tells clients which library generation answered,
// and Vabuf-Instance makes failover logs and client traces attributable
// without a /metrics round trip.
func (s *Server) identityHeaders(w http.ResponseWriter) {
	if id := s.InstanceID(); id != "" {
		w.Header().Set("Vabuf-Instance", id)
	}
	if s.cfg.Epoch != "" {
		w.Header().Set("Vabuf-Epoch", s.cfg.Epoch)
	}
}
