package main

// yield-mc: a closed loop with one client over a small pool of p1/r1/r2
// size WID nets that share one variation model and one SubtreeCache.
// Set-up solves the pool once, so in the window the DP replays from the
// cache and time goes to canonical yield propagation and adaptive Monte
// Carlo. An MC change shows here and not in lib-sweep; a kernel change
// shows in lib-sweep and not here.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"vabuf"
	"vabuf/internal/core"
)

// yieldSinks are the pool's net sizes: p1, r1 and r2 of Table 1, twice.
var yieldSinks = []int{269, 267, 598, 269, 267, 598}

const (
	yieldMaxSamples = 32768
	yieldTol        = 0.01
	yieldQuantile   = 0.05
	// yieldCheckEvery re-draws every k-th operation's samples after the
	// window, on one worker, and compares them bit for bit.
	yieldCheckEvery = 23
)

type yieldPool struct {
	nets  []*vabuf.Tree
	lib   vabuf.Library
	model *vabuf.VariationModel
	cache *vabuf.SubtreeCache
}

// newYieldPool builds the pool of seed on one shared die, so one model
// covers every net.
func newYieldPool(seed int64) (*yieldPool, error) {
	p := &yieldPool{lib: vabuf.DefaultLibrary(), cache: vabuf.NewSubtreeCache(0)}
	die := 2000 * math.Sqrt(float64(slices.Max(yieldSinks))/100)
	var bbox vabuf.Rect
	for i, n := range yieldSinks {
		t, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Sinks: n, Seed: netSeed(seed, i), DieSide: die})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			bbox = t.BoundingBox()
		} else {
			bbox = bbox.Union(t.BoundingBox())
		}
		p.nets = append(p.nets, t)
	}
	cfg := vabuf.DefaultModelConfig(p.nets[0])
	cfg.Die = bbox.Expand(100)
	model, err := vabuf.NewVariationModel(cfg)
	if err != nil {
		return nil, err
	}
	p.model = model
	return p, nil
}

// yieldOp is what one operation produced.
type yieldOp struct {
	stats   core.Stats
	samples []float64
	est     vabuf.MCEstimate
	seed    int64
	net     int
}

// run performs one operation: insert, canonical yield, adaptive MC.
func (p *yieldPool) run(tr *tracer, i int, op int64, parent int, seed int64) (*yieldOp, error) {
	tree := p.nets[i]
	sp := tr.begin("core.insert", op, parent)
	res, err := vabuf.Insert(tree, vabuf.Options{Library: p.lib, Model: p.model,
		SubtreeCache: p.cache, Parallelism: runtime.NumCPU()})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("yield.eval", op, parent)
	_, err = vabuf.EvaluateYield(tree, p.lib, res.Assignment, p.model, yieldQuantile)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("yield.mc", op, parent)
	samples, est, err := p.mc(i, res.Assignment, seed, runtime.NumCPU())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &yieldOp{stats: res.Stats, samples: samples, est: est, seed: seed, net: i}, nil
}

func (p *yieldPool) mc(i int, assign map[vabuf.NodeID]int, seed int64, workers int) ([]float64, vabuf.MCEstimate, error) {
	return vabuf.MonteCarloRATAdaptive(p.nets[i], p.lib, assign, p.model, vabuf.MCAdaptiveOptions{
		MaxSamples: yieldMaxSamples, Seed: seed, Workers: workers,
		Quantile: yieldQuantile, Tol: yieldTol,
	})
}

// opSeed is the Monte-Carlo seed of operation op: fresh for every one.
func opSeed(seed, op int64) int64 { return seed*7_919 + op*104_729 + 1 }

type yieldMC struct {
	tr     *tracer
	seed   int64
	pool   *yieldPool
	ops    []*yieldOp
	assign []map[vabuf.NodeID]int
}

func setupYieldMC(cfg *config, tr *tracer) (bench, error) {
	pool, err := newYieldPool(cfg.seed)
	if err != nil {
		return nil, err
	}
	// Prewarm: the first pass fills the subtree cache.
	y := &yieldMC{tr: tr, seed: cfg.seed, pool: pool}
	for i, t := range pool.nets {
		res, err := vabuf.Insert(t, vabuf.Options{Library: pool.lib, Model: pool.model,
			SubtreeCache: pool.cache, Parallelism: runtime.NumCPU()})
		if err != nil {
			return nil, fmt.Errorf("prewarm net %d: %w", i, err)
		}
		y.assign = append(y.assign, res.Assignment)
	}
	return y, nil
}

func (y *yieldMC) measure(d time.Duration) (*outcome, error) {
	y.tr.reset()
	out := &outcome{}
	start := time.Now()
	clock := startBlock()
	var blat []float64
	for op := int64(0); ; op++ {
		i := int(op) % len(y.pool.nets)
		t0 := time.Now()
		root := y.tr.begin("op", op, -1)
		r, err := y.pool.run(y.tr, i, op, root, opSeed(y.seed, op))
		y.tr.end(root)
		lat := time.Since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			logf("yield-mc op %d: %v", op, err)
		} else {
			out.latMS = append(out.latMS, ms(lat))
			blat = append(blat, ms(lat))
			if op%yieldCheckEvery != 0 {
				r.samples = nil
			}
			y.ops = append(y.ops, r)
		}
		// Whole passes over the pool only, so every block weighs the nets
		// equally.
		if i == len(y.pool.nets)-1 {
			out.blocks = append(out.blocks, clock.end(blat))
			if time.Since(start) >= d {
				break
			}
			clock, blat = startBlock(), nil
		}
	}
	if y.tr != nil {
		stats := make([]core.Stats, len(y.ops))
		samples := 0
		for i, r := range y.ops {
			stats[i] = r.stats
			samples += r.est.Samples
		}
		out.layers = coreLayers(stats)
		out.layers["core.dp_ms_p50"] = median(durationsMS(y.tr.opDurations("core.insert")))
		out.layers["yield.eval_ms_p50"] = median(durationsMS(y.tr.opDurations("yield.eval")))
		mcMS := durationsMS(y.tr.opDurations("yield.mc"))
		out.layers["yield.mc_ms_p50"] = median(mcMS)
		if len(y.ops) > 0 && samples > 0 {
			out.layers["yield.mc_samples_per_op"] = float64(samples) / float64(len(y.ops))
			out.layers["yield.mc_us_per_sample"] = mean(mcMS) * float64(len(mcMS)) * 1e3 / float64(samples)
		}
	}
	return out, nil
}

// check re-draws the kept operations' samples on a single worker: the
// sharded sampler must reproduce the same stream for the same seed
// whatever the worker count.
func (y *yieldMC) check() (attempted, failed int64, err error) {
	for _, r := range y.ops {
		if r.samples == nil {
			continue
		}
		again, est, err := y.pool.mc(r.net, y.assign[r.net], r.seed, 1)
		if err != nil {
			return 0, 0, err
		}
		attempted++
		if !slices.Equal(again, r.samples) || est != r.est {
			failed++
			logf("yield-mc check: seed %d on net %d drew different samples", r.seed, r.net)
		}
	}
	return attempted, failed, nil
}

func (y *yieldMC) close() {}

// goldenYieldMC solves the golden seed's pool cold and samples each net
// once, returning the DP counters and Monte-Carlo sample counts.
func goldenYieldMC() ([]goldenRow, error) {
	pool, err := newYieldPool(goldenSeed)
	if err != nil {
		return nil, err
	}
	rows := make([]goldenRow, 0, len(pool.nets))
	for i := range pool.nets {
		r, err := pool.run(nil, i, 0, -1, opSeed(goldenSeed, int64(i)))
		if err != nil {
			return nil, err
		}
		row := statsRow(fmt.Sprintf("net%d-%d", i, yieldSinks[i]), r.stats)
		row.MCSamples = len(r.samples)
		rows = append(rows, row)
	}
	return rows, nil
}
