package main

// eco-serve: a closed loop of two clients, each sending its next request
// when the last is answered, into an in-process vabufr router in front
// of two vabufd backends (one worker each) over loopback HTTP. Requests
// are POST /v1/insert with inline rctree text of eight base nets of
// 250–900 sinks: mostly ECO edits (1–3 sinks get a new load or RAT, so
// every edit has its own fingerprint), mixed with exact repeats of
// recent requests that the result cache answers.
// Time goes to body decode, tree parse, the model and tree caches,
// fingerprinting, placement, queueing and the DP; Monte Carlo is idle.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vabuf"
	"vabuf/internal/core"
	"vabuf/internal/router"
	"vabuf/internal/server"
)

// ecoSinks are the base nets' sizes. Their geometry is the same on
// every seed: with only eight of them, geometry drawn per seed moved
// cpu_ms_per_op by 15% from seed to seed. The seed draws the edits and
// the order of the mix. A block of the mix (see ecoBlockOps) sorts by
// cost into the repeats and then four requests per net, so its p50 falls
// in the middle of the third net's four and its p90 between the last two
// nets: those two are close in size so that the p90 does not jump
// between costs when queueing reorders a request.
var ecoSinks = [ecoBaseNets]int{250, 343, 436, 529, 621, 714, 860, 900}

const (
	ecoBaseNets = 8
	// ecoMaxRate bounds the requests a run draws per second of window,
	// well above the ~35/s two clients reach on a 2-CPU host.
	ecoMaxRate = 100
	// ecoRoundRepeats of every round of requests repeat one of the
	// ecoRepeatWindow most recent edits issued at least ecoRepeatLag
	// requests earlier, so the original has normally been answered and
	// cached. The rest of the round edits every base net once.
	ecoRoundRepeats = 3
	ecoRepeatWindow = 16
	ecoRepeatLag    = 4
	// ecoVerify responses are re-solved through the library after the
	// window and must match bit for bit.
	ecoVerify = 12
	// ecoBlockOps consecutive requests, four rounds, make one block: each
	// block gives a latency percentile and CPU per request, and the run
	// reports their medians. Every block holds the same mix, so they
	// differ only by queueing and the host.
	ecoBlockOps = 4 * (ecoBaseNets + ecoRoundRepeats)
	// Indexes of a sink line's load and RAT fields in the rctree text
	// format ("node id kind x y parent wirelen bufok cap rat name").
	capField, ratField = 8, 9
)

// ecoBase is one base net as request text.
type ecoBase struct {
	lines []string // rctree text lines
	sinks []int    // indexes into lines of the sink records
	owner string   // backend that served the unedited net in set-up
}

// ecoEdit changes the load or RAT of 1–3 sinks of a base net.
type ecoEdit struct {
	base  int
	lines map[int]string // line index -> replacement line
}

// ecoOp is one request of the mix.
type ecoOp struct {
	edit   *ecoEdit
	repeat int // index of the op this one repeats, -1 for a fresh edit

	// Filled by the client that sent it.
	sent    bool
	status  int
	latency time.Duration
	backend string
	resp    server.InsertResult
	kb      float64
}

type ecoServe struct {
	tr      *tracer
	bases   []ecoBase
	ops     []ecoOp
	fleet   *fleet
	client  *http.Client
	clients int
}

func setupEcoServe(cfg *config, tr *tracer) (bench, error) {
	e := &ecoServe{tr: tr, clients: runtime.NumCPU()}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i, n := range ecoSinks {
		tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Sinks: n, Seed: netSeed(goldenSeed, i)})
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := vabuf.WriteTree(&sb, tree); err != nil {
			return nil, err
		}
		b := ecoBase{lines: strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")}
		for li, l := range b.lines {
			if f := strings.Fields(l); len(f) == 11 && f[0] == "node" && f[2] == "sink" {
				b.sinks = append(b.sinks, li)
			}
		}
		if len(b.sinks) != n {
			return nil, fmt.Errorf("base net %d: found %d sink lines, want %d", i, len(b.sinks), n)
		}
		e.bases = append(e.bases, b)
	}
	e.schedule(rng, int(math.Ceil(ecoMaxRate*cfg.seconds/ecoBlockOps))*ecoBlockOps)

	f, err := startFleet(tr, 2)
	if err != nil {
		return nil, err
	}
	e.fleet = f
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: e.clients, MaxIdleConnsPerHost: e.clients}}
	// Prewarm: every unedited base net once, recording its owner.
	for i := range e.bases {
		st, backend, _, err := e.post(e.body(&ecoEdit{base: i}), -1, -1)
		if err != nil || st != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("prewarm base %d: status %d: %v", i, st, err)
		}
		e.bases[i].owner = backend
	}
	return e, nil
}

// schedule draws n requests, each a fresh edit or a repeat. The mix is
// balanced so seeds differ in detail but not in the work they ask for:
// every round edits each base net once, in shuffled order, and holds
// ecoRoundRepeats repeats at shuffled places (last in the first round,
// which has nothing to repeat before).
func (e *ecoServe) schedule(rng *rand.Rand, n int) {
	round := len(e.bases) + ecoRoundRepeats
	var edits, slots []int
	e.ops = make([]ecoOp, n)
	for i := range e.ops {
		op := &e.ops[i]
		op.repeat = -1
		if i%round == 0 {
			slots = rng.Perm(round)
			if i == 0 {
				slices.Sort(slots)
			}
		}
		if slots[i%round] >= len(e.bases) {
			hi := len(edits) - ecoRepeatLag
			lo := max(0, hi-ecoRepeatWindow)
			op.repeat = edits[lo+rng.Intn(hi-lo)]
			op.edit = e.ops[op.repeat].edit
			continue
		}
		b := slots[i%round]
		ed := &ecoEdit{base: b, lines: make(map[int]string)}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			li := e.bases[b].sinks[rng.Intn(len(e.bases[b].sinks))]
			f := strings.Fields(e.bases[b].lines[li])
			if rng.Intn(2) == 0 {
				c, _ := strconv.ParseFloat(f[capField], 64)
				f[capField] = strconv.FormatFloat(c*(0.8+0.45*rng.Float64()), 'g', -1, 64)
			} else {
				r, _ := strconv.ParseFloat(f[ratField], 64)
				f[ratField] = strconv.FormatFloat(r+50*(rng.Float64()-0.5), 'g', -1, 64)
			}
			ed.lines[li] = strings.Join(f, " ")
		}
		op.edit = ed
		edits = append(edits, i)
	}
}

// body renders an edit as a /v1/insert request body. The tree text holds
// no quotes or backslashes, so escaping its newlines makes it JSON. The
// DP runs serially, so each backend keeps to one of the two CPUs: with
// the default parallelism a request's time depended on whether the other
// backend was busy, and latency swung with the arrival pattern.
func (e *ecoServe) body(ed *ecoEdit) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"parallelism":1,"tree":"`)
	for li, l := range e.bases[ed.base].lines {
		if r, ok := ed.lines[li]; ok {
			l = r
		}
		buf.WriteString(l)
		buf.WriteString(`\n`)
	}
	buf.WriteString(`"}`)
	return buf.Bytes()
}

// post sends one request through the router and decodes the answer.
func (e *ecoServe) post(body []byte, op int64, parent int) (int, string, server.InsertResult, error) {
	var res server.InsertResult
	req, err := http.NewRequest(http.MethodPost, e.fleet.routerURL+"/v1/insert", bytes.NewReader(body))
	if err != nil {
		return 0, "", res, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent >= 0 {
		setSpanHeaders(req.Header, op, parent)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, "", res, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", res, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &res)
	}
	return resp.StatusCode, resp.Header.Get("Vabuf-Instance"), res, err
}

func (e *ecoServe) measure(d time.Duration) (*outcome, error) {
	e.tr.reset()
	var before []map[string]any
	if e.tr != nil {
		before = e.fleet.metrics()
	}
	// The clients stop at the first block boundary after d: limit drops
	// from len(e.ops) to that boundary's index. The client that takes a
	// block's first request reads the clocks for it; the end of the last
	// block is read once every answer is in.
	nb := len(e.ops) / ecoBlockOps
	wallAt := make([]time.Time, nb+1)
	cpuAt := make([]time.Duration, nb+1)
	var next, limit atomic.Int64
	limit.Store(int64(len(e.ops)))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i%ecoBlockOps == 0 && i < limit.Load() {
					wallAt[i/ecoBlockOps], cpuAt[i/ecoBlockOps] = time.Now(), cpuTime()
					if i > 0 && time.Since(start) >= d {
						limit.Store(i)
					}
				}
				if i >= limit.Load() {
					return
				}
				op := &e.ops[i]
				body := e.body(op.edit)
				op.kb = float64(len(body)) / 1024
				t0 := time.Now()
				sp := e.tr.begin("client", i, -1)
				st, backend, res, err := e.post(body, i, sp)
				e.tr.end(sp)
				op.latency = time.Since(t0)
				op.sent = true
				op.backend = backend
				op.resp = res
				op.status = st
				if err != nil {
					op.status = 0
					logf("eco-serve op %d: %v", i, err)
				} else if st != http.StatusOK {
					logf("eco-serve op %d: status %d", i, st)
				}
			}
		}()
	}
	wg.Wait()
	done := int(limit.Load()) / ecoBlockOps
	wallAt[done], cpuAt[done] = time.Now(), cpuTime()

	out := &outcome{blocks: make([]block, done)}
	for k := range out.blocks {
		out.blocks[k].wall = wallAt[k+1].Sub(wallAt[k])
		out.blocks[k].cpu = cpuAt[k+1] - cpuAt[k]
	}
	for i := range e.ops {
		op := &e.ops[i]
		if !op.sent {
			continue
		}
		out.attempted++
		if op.status != http.StatusOK {
			out.failed++
			continue
		}
		out.latMS = append(out.latMS, ms(op.latency))
		if k := i / ecoBlockOps; k < done {
			out.blocks[k].latMS = append(out.blocks[k].latMS, ms(op.latency))
		}
	}
	out.stamp = map[string]any{"clients": e.clients}
	if e.tr != nil {
		out.layers = e.layers(before, e.fleet.metrics())
	}
	return out, nil
}

// layers derives the per-layer metrics from spans, response DTOs and the
// /metrics documents taken before and after the window.
func (e *ecoServe) layers(before, after []map[string]any) map[string]float64 {
	routerSpans := e.tr.opDurations("router")
	serverSpans := e.tr.opDurations("server")
	var routerSelf, serverSelf, dp, kb []float64
	var stats []core.Stats
	affine, edits := 0, 0
	for i := range e.ops {
		op := &e.ops[i]
		if op.status != http.StatusOK {
			continue
		}
		kb = append(kb, op.kb)
		rs, sv := routerSpans[int64(i)], serverSpans[int64(i)]
		if rs > 0 && sv > 0 {
			routerSelf = append(routerSelf, ms(rs-sv))
		}
		dpMS := 0.0
		if op.repeat < 0 {
			dpMS = op.resp.Stats.ElapsedMS
			dp = append(dp, dpMS)
			stats = append(stats, dtoStats(op.resp.Stats))
			edits++
			if op.backend == e.bases[op.edit.base].owner {
				affine++
			}
		}
		if sv > 0 {
			serverSelf = append(serverSelf, ms(sv)-dpMS)
		}
	}
	m := coreLayers(stats)
	m["core.dp_ms_p50"] = median(dp)
	m["router.self_ms_p50"] = median(routerSelf)
	m["server.self_ms_p50"] = median(serverSelf)
	m["server.request_kb"] = mean(kb)
	if edits > 0 {
		m["router.owner_affinity"] = float64(affine) / float64(edits)
	}

	delta := func(path ...string) float64 {
		d := 0.0
		for i := 0; i < len(e.fleet.backends); i++ {
			d += num(after[i], path...) - num(before[i], path...)
		}
		return d
	}
	ratio := func(cache string) float64 {
		h, miss := delta("caches", cache, "hits"), delta("caches", cache, "misses")
		if h+miss == 0 {
			return 0
		}
		return h / (h + miss)
	}
	m["server.result_hit_ratio"] = ratio("result")
	m["server.tree_hit_ratio"] = ratio("tree")
	m["server.model_hit_ratio"] = ratio("model")
	m["server.subtree_hit_ratio"] = ratio("subtree")
	backendReqs := delta("requests", "/v1/insert", "200")
	if backendReqs > 0 {
		m["server.coalesced_per_req"] = delta("coalescing", "coalesced", "/v1/insert") / backendReqs
	}
	m["server.queue_wait_ms_p90"] = histQuantile(before[:len(e.fleet.backends)], after[:len(e.fleet.backends)],
		0.9, "queue", "classes", "interactive", "wait_ms", "buckets")
	rb, ra := before[len(before)-1], after[len(after)-1]
	if reqs := num(ra, "requests", "/v1/insert", "200") - num(rb, "requests", "/v1/insert", "200"); reqs > 0 {
		m["router.attempts_per_req"] = (num(ra, "resilience", "attempts_total") -
			num(rb, "resilience", "attempts_total")) / reqs
	}
	return m
}

// check compares every repeat with the answer to its original, and a
// sample of fresh edits with vabuf.Insert on the same tree and options.
func (e *ecoServe) check() (attempted, failed int64, err error) {
	var fresh []int
	for i := range e.ops {
		op := &e.ops[i]
		if op.status != http.StatusOK {
			continue
		}
		if op.repeat < 0 {
			fresh = append(fresh, i)
			continue
		}
		orig := &e.ops[op.repeat]
		if orig.status != http.StatusOK {
			continue
		}
		attempted++
		if !sameAnswer(op.resp, orig.resp) {
			failed++
			logf("eco-serve check: repeat %d answered differently from op %d", i, op.repeat)
		}
	}
	step := max(1, len(fresh)/ecoVerify)
	for k := 0; k < len(fresh); k += step {
		op := &e.ops[fresh[k]]
		want, err := libraryAnswer(e.body(op.edit))
		if err != nil {
			return 0, 0, err
		}
		attempted++
		if !sameAnswer(op.resp, want) {
			failed++
			logf("eco-serve check: op %d differs from vabuf.Insert (objective %v vs %v)",
				fresh[k], op.resp.ObjectivePS, want.ObjectivePS)
		}
	}
	return attempted, failed, nil
}

func sameAnswer(a, b server.InsertResult) bool {
	return a.MeanPS == b.MeanPS && a.SigmaPS == b.SigmaPS &&
		a.ObjectivePS == b.ObjectivePS && a.NumBuffers == b.NumBuffers
}

// libraryAnswer solves a /v1/insert body the way vabufd does by default:
// WID, 2P at pbar 0.5, 15% budgets, heterogeneous spatial variation.
func libraryAnswer(body []byte) (server.InsertResult, error) {
	var req server.InsertRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return server.InsertResult{}, err
	}
	tree, err := vabuf.ReadTree(strings.NewReader(req.Tree))
	if err != nil {
		return server.InsertResult{}, err
	}
	cfg := vabuf.DefaultModelConfig(tree)
	cfg.RandomFrac, cfg.InterDieFrac, cfg.SpatialFrac = 0.15, 0.15, 0.15
	cfg.Heterogeneous = true
	model, err := vabuf.NewVariationModel(cfg)
	if err != nil {
		return server.InsertResult{}, err
	}
	res, err := vabuf.Insert(tree, vabuf.Options{Library: vabuf.DefaultLibrary(), Model: model})
	if err != nil {
		return server.InsertResult{}, err
	}
	return server.InsertResult{MeanPS: res.Mean, SigmaPS: res.Sigma,
		ObjectivePS: res.Objective, NumBuffers: res.NumBuffers}, nil
}

func (e *ecoServe) close() {
	if e.fleet != nil {
		e.fleet.close()
		e.fleet = nil
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}

func dtoStats(s server.StatsDTO) core.Stats {
	return core.Stats{
		Generated: s.Generated, Pruned: s.Pruned, PeakList: s.PeakList, Merges: s.Merges,
		Workers: s.Workers, ArenaTerms: s.ArenaTerms, ArenaUsedBytes: s.ArenaUsedBytes,
		HullSkipped: s.HullSkipped, HullFallbacks: s.HullFallbacks,
	}
}

// fleet is a vabufr router in front of vabufd backends, each on its own
// loopback listener.
type fleet struct {
	backends  []*server.Server
	router    *router.Router
	transport *http.Transport
	urls      []string // backend URLs, then the router's
	routerURL string
	stops     []func()
}

// startFleet starts n single-worker backends and a router over them.
// With a tracer, each hop runs inside a span.
func startFleet(tr *tracer, n int) (*fleet, error) {
	f := &fleet{transport: http.DefaultTransport.(*http.Transport).Clone()}
	for i := 0; i < n; i++ {
		s := server.New(server.Config{Workers: 1, Instance: fmt.Sprintf("b%d", i)})
		f.backends = append(f.backends, s)
		var h http.Handler = s.Handler()
		if tr != nil {
			h = tracedHandler(tr, "server", h)
		}
		url, stop, err := serve(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.urls = append(f.urls, url)
		f.stops = append(f.stops, stop)
	}
	var rt http.RoundTripper = f.transport
	if tr != nil {
		rt = tracedTransport{base: f.transport}
	}
	r, err := router.New(router.Config{Backends: append([]string(nil), f.urls...),
		Client: &http.Client{Transport: rt}, Logf: func(string, ...any) {}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = r
	var h http.Handler = r.Handler()
	if tr != nil {
		h = tracedHandler(tr, "router", h)
	}
	url, stop, err := serve(h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.routerURL = url
	f.urls = append(f.urls, url)
	f.stops = append(f.stops, stop)
	return f, nil
}

// metrics fetches /metrics from every backend and then the router.
func (f *fleet) metrics() []map[string]any {
	docs := make([]map[string]any, len(f.urls))
	for i, u := range f.urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			logf("metrics %s: %v", u, err)
			continue
		}
		if err := json.NewDecoder(resp.Body).Decode(&docs[i]); err != nil {
			logf("metrics %s: %v", u, err)
		}
		resp.Body.Close()
	}
	return docs
}

// close stops the router, the listeners and then the backends, which
// drain their workers.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
	for _, s := range f.backends {
		s.Close()
	}
	f.transport.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
}

// serve runs h on a fresh loopback listener; stop closes it and waits
// for the serving goroutine to return.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// num reads a number at path in a decoded JSON document (0 if absent).
func num(doc map[string]any, path ...string) float64 {
	var v any = doc
	for _, p := range path {
		m, ok := v.(map[string]any)
		if !ok {
			return 0
		}
		v = m[p]
	}
	f, _ := v.(float64)
	return f
}

// histQuantile estimates the q-quantile of the observations a bucketed
// /metrics histogram gained between two documents per backend, by linear
// interpolation inside the bucket that holds it.
func histQuantile(before, after []map[string]any, q float64, path ...string) float64 {
	counts := make(map[float64]float64)
	add := func(doc map[string]any, sign float64) {
		var v any = doc
		for _, p := range path {
			m, _ := v.(map[string]any)
			v = m[p]
		}
		buckets, _ := v.(map[string]any)
		for k, c := range buckets {
			ub := math.Inf(1)
			if k != "inf" {
				ub, _ = strconv.ParseFloat(strings.TrimPrefix(k, "le_"), 64)
			}
			n, _ := c.(float64)
			counts[ub] += sign * n
		}
	}
	for i := range after {
		add(after[i], 1)
		add(before[i], -1)
	}
	bounds := make([]float64, 0, len(counts))
	total := 0.0
	for ub, n := range counts {
		bounds = append(bounds, ub)
		total += n
	}
	if total <= 0 {
		return 0
	}
	sort.Float64s(bounds)
	cum, lo := 0.0, 0.0
	for _, ub := range bounds {
		n := counts[ub]
		if n > 0 && cum+n >= q*total {
			if math.IsInf(ub, 1) {
				return lo
			}
			return lo + (ub-lo)*(q*total-cum)/n
		}
		cum += n
		lo = ub
	}
	return lo
}
