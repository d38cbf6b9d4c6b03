package core

import (
	"math/rand"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// benchFrontier builds a frontier with per-candidate private sources, the
// input shape of the statistical pruning rules.
func benchFrontier(n int, sigmas bool) (*frontier, *variation.Space) {
	space := variation.NewSpace()
	rng := rand.New(rand.NewSource(7))
	f := newFrontier(n, sigmas)
	for i := 0; i < n; i++ {
		pushStatCand(f, space, rng.Float64()*50, rng.Float64(),
			-rng.Float64()*50, rng.Float64())
	}
	return f, space
}

// copyFrom refills f with src's candidates, reusing f's backing arrays.
func (f *frontier) copyFrom(src *frontier) {
	f.ln = append(f.ln[:0], src.ln...)
	f.tn = append(f.tn[:0], src.tn...)
	f.lt = append(f.lt[:0], src.lt...)
	f.tt = append(f.tt[:0], src.tt...)
	f.ref = append(f.ref[:0], src.ref...)
	if src.sl != nil {
		f.sl = append(f.sl[:0], src.sl...)
		f.st = append(f.st[:0], src.st...)
	} else {
		f.sl, f.st = nil, nil
	}
}

func benchmarkPrune(b *testing.B, rule Rule, pbar float64, n int) {
	opts := Options{Rule: rule, PbarL: pbar, PbarT: pbar, FourP: DefaultFourP()}
	needSig := rule == Rule4P || pbar != 0.5
	base, space := benchFrontier(n, needSig)
	var st Stats
	p := newPruner(space, opts, &st)
	work := newFrontier(n, needSig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// prune reorders the frontier in place but never mutates forms.
		work.copyFrom(base)
		sinkFrontier = p.prune(work)
	}
}

// sinkFrontier defeats dead-code elimination.
var sinkFrontier *frontier

// Prune2PMean* are the exactMeans flat scans (sort + sweep over contiguous
// float64 keys — the SoA fast path); Prune2P* run the pbar = 0.9 sigma
// sandwich, Prune4P* the quadratic quantile-quad pass.
func BenchmarkPrune2PMean256(b *testing.B)  { benchmarkPrune(b, Rule2P, 0.5, 256) }
func BenchmarkPrune2PMean1024(b *testing.B) { benchmarkPrune(b, Rule2P, 0.5, 1024) }
func BenchmarkPrune2P256(b *testing.B)      { benchmarkPrune(b, Rule2P, 0.9, 256) }
func BenchmarkPrune2P1024(b *testing.B)     { benchmarkPrune(b, Rule2P, 0.9, 1024) }
func BenchmarkPrune4P256(b *testing.B)      { benchmarkPrune(b, Rule4P, 0.9, 256) }
func BenchmarkPrune4P1024(b *testing.B)     { benchmarkPrune(b, Rule4P, 0.9, 1024) }

// benchmarkInsert runs the full DP on a Table 1 preset. With a model it is
// the paper's 2P variation-aware engine; parallelism 1 forces the serial
// path, 4 exercises the worker fan-out. minPar is Options.MinParallelNodes:
// benches pass 1 so Par4 measures the real fan-out cost even on small
// trees (the crossover evidence), except the Auto bench which keeps the
// default degrade.
func benchmarkInsert(b *testing.B, bench string, withModel bool, parallelism, minPar int) {
	tr, err := benchgen.Build(bench)
	if err != nil {
		b.Fatal(err)
	}
	lib := device.DefaultLibrary()
	var model *variation.Model
	if withModel {
		model, err = variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Insert(tr, Options{
			Library: lib, Model: model,
			Parallelism: parallelism, MinParallelNodes: minPar,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.NumBuffers == 0 {
			b.Fatal("no buffers inserted")
		}
	}
}

func BenchmarkInsertNOMp1Serial(b *testing.B) { benchmarkInsert(b, "p1", false, 1, 1) }
func BenchmarkInsertNOMp1Par4(b *testing.B)   { benchmarkInsert(b, "p1", false, 4, 1) }
func BenchmarkInsertWIDp1Serial(b *testing.B) { benchmarkInsert(b, "p1", true, 1, 1) }
func BenchmarkInsertWIDp1Par4(b *testing.B)   { benchmarkInsert(b, "p1", true, 4, 1) }

// InsertWIDp1Auto4 asks for 4 workers but keeps the default
// MinParallelNodes degrade: p1 (~538 nodes) runs serially, so this should
// track InsertWIDp1Serial, not InsertWIDp1Par4.
func BenchmarkInsertWIDp1Auto4(b *testing.B)  { benchmarkInsert(b, "p1", true, 4, 0) }
func BenchmarkInsertWIDr1Serial(b *testing.B) { benchmarkInsert(b, "r1", true, 1, 1) }
func BenchmarkInsertWIDr1Par4(b *testing.B)   { benchmarkInsert(b, "r1", true, 4, 1) }

// benchmarkInsertLib is the library-scaling benchmark: the full DP on a
// Table 1 preset with an n-cell ScaledLibrary (sized repeaters +
// inverters + MaxLoad caps). hull selects the buffering kernel — the
// Exact variants freeze the pre-hull cost so the convex-hull win is
// measured inside one binary.
func benchmarkInsertLib(b *testing.B, bench string, nlib int, withModel bool, hull HullMode) {
	tr, err := benchgen.Build(bench)
	if err != nil {
		b.Fatal(err)
	}
	lib, err := benchgen.ScaledLibrary(nlib)
	if err != nil {
		b.Fatal(err)
	}
	var model *variation.Model
	if withModel {
		model, err = variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Insert(tr, Options{
			Library: lib, Model: model,
			Parallelism: 1, MinParallelNodes: 1,
			HullBuffering: hull,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.NumBuffers == 0 {
			b.Fatal("no buffers inserted")
		}
	}
}

func BenchmarkInsertLib8NOMr3Serial(b *testing.B) {
	benchmarkInsertLib(b, "r3", 8, false, HullAuto)
}

func BenchmarkInsertLib8NOMr3SerialExact(b *testing.B) {
	benchmarkInsertLib(b, "r3", 8, false, HullOff)
}

func BenchmarkInsertLib32NOMr3Serial(b *testing.B) {
	benchmarkInsertLib(b, "r3", 32, false, HullAuto)
}

func BenchmarkInsertLib32NOMr3SerialExact(b *testing.B) {
	benchmarkInsertLib(b, "r3", 32, false, HullOff)
}

func BenchmarkInsertLib32WIDr3Serial(b *testing.B) {
	benchmarkInsertLib(b, "r3", 32, true, HullAuto)
}

// benchmarkInsertSubtree measures ECO-style re-insertion on r3 under the
// WID model: every iteration perturbs one sink RAT (a different sink and a
// unique delta each time, so no whole-tree result reuse is possible) and
// re-runs the DP. Cold pays the full recompute; Warm shares a subtree
// cache prewarmed on the base tree, so only the mutated root path
// recomputes.
func benchmarkInsertSubtree(b *testing.B, cache *SubtreeCache) {
	tr, err := benchgen.Build("r3")
	if err != nil {
		b.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{
		Library:      device.DefaultLibrary(),
		Model:        model,
		Parallelism:  1,
		SubtreeCache: cache,
	}
	var sinks []rctree.NodeID
	for i := range tr.Nodes {
		if tr.Nodes[i].Kind == rctree.KindSink {
			sinks = append(sinks, tr.Nodes[i].ID)
		}
	}
	if cache != nil {
		// Prewarm with the unmutated tree.
		if _, err := Insert(tr, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := sinks[i%len(sinks)]
		orig := tr.Nodes[id].RAT
		tr.Nodes[id].RAT = orig + 1 + float64(i)*1e-3
		res, err := Insert(tr, opts)
		tr.Nodes[id].RAT = orig
		if err != nil {
			b.Fatal(err)
		}
		if res.NumBuffers == 0 {
			b.Fatal("no buffers inserted")
		}
	}
}

func BenchmarkInsertSubtreeColdWIDr3(b *testing.B) { benchmarkInsertSubtree(b, nil) }
func BenchmarkInsertSubtreeWarmWIDr3(b *testing.B) {
	benchmarkInsertSubtree(b, NewSubtreeCache(512<<20))
}
