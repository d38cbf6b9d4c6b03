package main

// lib-sweep: a closed loop with one client. Each operation solves one
// seeded random net with a 32-cell library, Parallelism = nproc and no
// subtree cache, so nearly all time goes to the core DP and the
// variation forms. The nets rotate through three regimes that take the
// hull kernel's three 2P paths: deterministic (exact-means kernel), WID
// pbar 0.5 (exact-means kernel over canonical forms) and WID pbar 0.9
// (certified pre-prune). The pbar 0.9 nets are smaller because that
// frontier grows steeply with size: 100 sinks already peak near 250 MB.

import (
	"fmt"
	"maps"
	"runtime"
	"time"

	"vabuf"
	"vabuf/internal/benchgen"
	"vabuf/internal/core"
)

type libRegime struct {
	name  string
	pbar  float64 // 0 runs the deterministic algorithm
	sinks []int
}

var libRegimes = []libRegime{
	{"nom", 0, []int{600, 1300, 2000}},
	{"wid50", 0.5, []int{600, 800, 1000}},
	{"wid90", 0.9, []int{60, 80, 100}},
}

const (
	// libCycles is how many distinct nets of each (regime, size) a run
	// rotates through; one cycle solves each pair once. Six keep the
	// seed-to-seed difference in work near 2%.
	libCycles = 6
	// libCheckEvery re-solves every k-th operation with the exact kernel,
	// serially, after the window: about six per run. Coprime with the
	// 9-net cycle, so the checks rotate through the regimes and sizes.
	libCheckEvery = 71
	libCells      = 32
)

type libNet struct {
	name string
	tree *vabuf.Tree
	pbar float64
}

// libNets builds cycles × 9 nets from seed, regimes interleaved so that
// every cycle holds each regime and size once.
func libNets(seed int64, cycles int) ([]libNet, error) {
	var nets []libNet
	for c := 0; c < cycles; c++ {
		for si := range libRegimes[0].sinks {
			for _, r := range libRegimes {
				n := r.sinks[si]
				tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Sinks: n, Seed: netSeed(seed, len(nets))})
				if err != nil {
					return nil, err
				}
				nets = append(nets, libNet{name: fmt.Sprintf("%s-%d", r.name, n), tree: tree, pbar: r.pbar})
			}
		}
	}
	return nets, nil
}

// netSeed derives the generator seed of the i-th net of a run.
func netSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

type libSweep struct {
	tr   *tracer
	lib  vabuf.Library
	nets []libNet
	// stats of every operation of the window, and the operations kept
	// for the post-window re-solve.
	stats  []core.Stats
	checks []libCheck
}

type libCheck struct {
	net int
	res *vabuf.Result
}

func setupLibSweep(cfg *config, tr *tracer) (bench, error) {
	lib, err := benchgen.ScaledLibrary(libCells)
	if err != nil {
		return nil, err
	}
	nets, err := libNets(cfg.seed, libCycles)
	if err != nil {
		return nil, err
	}
	return &libSweep{tr: tr, lib: lib, nets: nets}, nil
}

// solveLib runs one lib-sweep operation: a fresh variation model for WID
// nets, then the DP.
func solveLib(tr *tracer, lib vabuf.Library, net libNet, op int64, parent int, parallelism int, hull vabuf.HullMode) (*vabuf.Result, error) {
	opts := vabuf.Options{Library: lib, Parallelism: parallelism, HullBuffering: hull}
	if net.pbar > 0 {
		sp := tr.begin("variation.model", op, parent)
		model, err := vabuf.NewVariationModel(vabuf.DefaultModelConfig(net.tree))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		opts.Model, opts.PbarL, opts.PbarT = model, net.pbar, net.pbar
	}
	sp := tr.begin("core.insert", op, parent)
	res, err := vabuf.Insert(net.tree, opts)
	tr.end(sp)
	return res, err
}

func (s *libSweep) measure(d time.Duration) (*outcome, error) {
	s.tr.reset()
	out := &outcome{}
	cycle := len(s.nets) / libCycles
	start := time.Now()
	clock := startBlock()
	var blat []float64
	for op := int64(0); ; op++ {
		i := int(op) % len(s.nets)
		t0 := time.Now()
		root := s.tr.begin("op", op, -1)
		res, err := solveLib(s.tr, s.lib, s.nets[i], op, root, runtime.NumCPU(), vabuf.HullAuto)
		s.tr.end(root)
		lat := time.Since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			logf("lib-sweep op %d (%s): %v", op, s.nets[i].name, err)
		} else {
			out.latMS = append(out.latMS, ms(lat))
			blat = append(blat, ms(lat))
			s.stats = append(s.stats, res.Stats)
			if op%libCheckEvery == 0 {
				s.checks = append(s.checks, libCheck{net: i, res: res})
			}
		}
		// Whole cycles only, so every run and block weighs the regimes
		// equally.
		if (op+1)%int64(cycle) == 0 {
			out.blocks = append(out.blocks, clock.end(blat))
			if time.Since(start) >= d {
				break
			}
			clock, blat = startBlock(), nil
		}
	}
	if s.tr != nil {
		out.layers = coreLayers(s.stats)
		out.layers["core.dp_ms_p50"] = median(durationsMS(s.tr.opDurations("core.insert")))
		out.layers["variation.model_build_ms"] = median(durationsMS(s.tr.opDurations("variation.model")))
	}
	return out, nil
}

// check re-solves the kept operations with the exact kernel on one
// worker; the hull kernel and the parallel engine must not change a bit
// of the answer.
func (s *libSweep) check() (attempted, failed int64, err error) {
	for _, c := range s.checks {
		ref, err := solveLib(nil, s.lib, s.nets[c.net], 0, -1, 1, vabuf.HullOff)
		if err != nil {
			return 0, 0, err
		}
		attempted++
		if ref.Objective != c.res.Objective || ref.Mean != c.res.Mean || ref.Sigma != c.res.Sigma ||
			!maps.Equal(ref.Assignment, c.res.Assignment) {
			failed++
			logf("lib-sweep check %s: exact serial solve differs (objective %v vs %v)",
				s.nets[c.net].name, ref.Objective, c.res.Objective)
		}
	}
	return attempted, failed, nil
}

func (s *libSweep) close() {}

// coreLayers averages the DP counters of a window's operations.
func coreLayers(stats []core.Stats) map[string]float64 {
	m := make(map[string]float64)
	if len(stats) == 0 {
		return m
	}
	var gen, pruned, merges, skipped, fallbacks, used, terms, workers float64
	peak := 0
	for _, st := range stats {
		gen += float64(st.Generated)
		pruned += float64(st.Pruned)
		merges += float64(st.Merges)
		skipped += float64(st.HullSkipped)
		fallbacks += float64(st.HullFallbacks)
		used += float64(st.ArenaUsedBytes)
		terms += float64(st.ArenaTerms)
		workers += float64(st.Workers)
		peak = max(peak, st.PeakList)
	}
	n := float64(len(stats))
	m["core.workers"] = workers / n
	m["core.generated_per_op"] = gen / n
	m["core.pruned_per_op"] = pruned / n
	if gen > 0 {
		m["core.prune_ratio"] = pruned / gen
	}
	m["core.merges_per_op"] = merges / n
	m["core.hull_skipped_per_op"] = skipped / n
	m["core.hull_fallbacks_per_op"] = fallbacks / n
	m["core.peak_list"] = float64(peak)
	m["core.arena_used_mb_per_op"] = used / (1 << 20) / n
	m["variation.arena_terms_per_op"] = terms / n
	return m
}

// goldenLibSweep solves the golden seed's smallest net of each regime,
// one per hull-kernel path, with the measured settings and returns their
// work counters.
func goldenLibSweep() ([]goldenRow, error) {
	lib, err := benchgen.ScaledLibrary(libCells)
	if err != nil {
		return nil, err
	}
	nets, err := libNets(goldenSeed, 1)
	if err != nil {
		return nil, err
	}
	nets = nets[:len(libRegimes)]
	rows := make([]goldenRow, 0, len(nets))
	for _, n := range nets {
		res, err := solveLib(nil, lib, n, 0, -1, runtime.NumCPU(), vabuf.HullAuto)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n.name, err)
		}
		rows = append(rows, statsRow(n.name, res.Stats))
	}
	return rows, nil
}
