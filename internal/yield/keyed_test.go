package yield

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/core"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// The keyed stream's structural properties: sample i of a seed is the
// same whichever sampler, worker count, range split, run length or
// compiled net draws it.

func TestSamplesIndependentOfSplit(t *testing.T) {
	for ni, p := range pinnedNets(t) {
		ref, err := MonteCarloSized(p.tree, p.lib, p.assign, p.wires, p.model, 700, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			got, err := MonteCarloParallel(p.tree, p.lib, p.assign, p.wires, p.model, 700, 3, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, ref) {
				t.Errorf("net %d: %d workers drew other samples than the serial run", ni, workers)
			}
		}
		// Sample i does not depend on n.
		short, err := MonteCarloSized(p.tree, p.lib, p.assign, p.wires, p.model, 129, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(short, ref[:129]) {
			t.Errorf("net %d: the 129-sample run is not a prefix of the 700-sample run", ni)
		}
		// A full-budget and an early-stopped adaptive run are prefixes
		// of the fixed-budget stream.
		for _, tol := range []float64{0, 0.05} {
			got, est, err := MonteCarloAdaptive(p.tree, p.lib, p.assign, p.wires, p.model, AdaptiveOptions{
				MaxSamples: 700, Seed: 3, Workers: 2, Quantile: 0.05, Tol: tol,
			})
			if err != nil {
				t.Fatal(err)
			}
			if (tol == 0) != (est.Samples == 700) || !slices.Equal(got, ref[:est.Samples]) {
				t.Errorf("net %d tol %g: %d adaptive samples are not the stream's prefix", ni, tol, est.Samples)
			}
		}
	}
}

// TestCompiledNetsShareDraws compiles two disjoint buffer placements on
// one model. Every source both reference gets the same value in each
// sample, equal to the full-space draw, and each program draws only the
// sources its deviations name.
func TestCompiledNetsShareDraws(t *testing.T) {
	tr, model, lib := testSetup(t, 40, 8)
	var progs []*MCProgram
	for r := range 2 {
		assign := make(map[rctree.NodeID]int)
		for i := range tr.Nodes {
			if tr.Nodes[i].BufferOK && i%3 == r {
				assign[tr.Nodes[i].ID] = 1
			}
		}
		p, err := CompileMC(tr, lib, assign, nil, model)
		if err != nil {
			t.Fatal(err)
		}
		var want []variation.SourceID
		for _, sl := range p.slots {
			for _, term := range sl.dev.Terms {
				want = append(want, term.ID)
			}
		}
		slices.Sort(want)
		if want = slices.Compact(want); !slices.Equal(p.sources, want) {
			t.Fatalf("program %d draws %v, its forms reference %v", r, p.sources, want)
		}
		progs = append(progs, p)
	}
	if len(progs[0].sources) >= model.Space.Len() {
		t.Errorf("a program draws all %d sources", model.Space.Len())
	}
	a, b := progs[0].Sampler(5), progs[1].Sampler(5)
	draws := variation.NewDraws(5)
	var all []float64
	shared := 0
	for _, i := range []int{0, 1, 77, 4096} {
		a.Sample(i)
		b.Sample(i)
		all = model.Space.Sample(draws, i, all)
		for _, id := range progs[0].sources {
			if a.src[id] != all[id] {
				t.Fatalf("sample %d source %d: %v drawn, %v in the full draw", i, id, a.src[id], all[id])
			}
			if _, ok := slices.BinarySearch(progs[1].sources, id); ok {
				shared++
				if a.src[id] != b.src[id] {
					t.Fatalf("sample %d source %d: the two nets drew %v and %v", i, id, a.src[id], b.src[id])
				}
			}
		}
	}
	if shared == 0 {
		t.Error("the two placements share no source")
	}
}

// FuzzSampleRanges cuts [0, n) into ranges at the cut points data names
// and fills them in the order data names, each with its own sampler.
// Property: the result is the serial vector bit for bit.
func FuzzSampleRanges(f *testing.F) {
	f.Add([]byte{40, 3, 17, 9, 2, 1, 0}, int64(1))
	f.Add([]byte{1}, int64(-7))
	f.Add([]byte{255, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1}, int64(99))
	nets := pinnedNets(f)
	var progs []*MCProgram
	for _, p := range nets {
		prog, err := CompileMC(p.tree, p.lib, p.assign, p.wires, p.model)
		if err != nil {
			f.Fatal(err)
		}
		progs = append(progs, prog)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		prog := progs[uint64(seed)%uint64(len(progs))]
		n := 1 + int(data[0])
		data = data[1:]
		want := make([]float64, n)
		prog.sample(want, seed, stats.Shard{Count: n})
		// Cut points from the first half of data, range order from the
		// second.
		cuts := []int{0, n}
		half := len(data) / 2
		for _, b := range data[:half] {
			cuts = append(cuts, int(b)%n)
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		var ranges []stats.Shard
		for k := 1; k < len(cuts); k++ {
			ranges = append(ranges, stats.Shard{From: cuts[k-1], Count: cuts[k] - cuts[k-1]})
		}
		for k, b := range data[half:] {
			j := int(b) % len(ranges)
			ranges[k%len(ranges)], ranges[j] = ranges[j], ranges[k%len(ranges)]
		}
		got := make([]float64, n)
		for _, r := range ranges {
			prog.sample(got, seed, r)
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("sample %d: %v from ranges %v, %v serially", i, got[i], ranges, want[i])
			}
		}
	})
}

// oldStreamSample is a test-only copy of the Monte-Carlo stream the keyed
// one replaced: one math/rand generator per seed drawing every source of
// the space in ID order, N(0, 1) times its sigma, sample after sample.
func oldStreamSample(p *MCProgram, space *variation.Space, n int, seed int64) []float64 {
	s := p.Sampler(seed)
	s.src = make([]float64, space.Len())
	rng := rand.New(rand.NewSource(seed))
	vals := make([]rctree.LT, p.Tree.Len())
	out := make([]float64, n)
	for i := range out {
		for j := range s.src {
			s.src[j] = rng.NormFloat64() * space.Sigma(variation.SourceID(j))
		}
		out[i] = p.Tree.RootRAT(s.realize(), vals)
	}
	return out
}

// ksTwoSample returns the two-sample Kolmogorov–Smirnov distance: the
// largest gap between the empirical CDFs of a and b.
func ksTwoSample(a, b []float64) float64 {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	d := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// ksOldAgainstKeyed optimizes bench under the WID model at the
// experiments' 15% budget and returns the two-sample KS distance between
// n root-RAT samples of the old stream and n of the keyed one, and the
// distance at which the hypothesis of one distribution is rejected at
// the 0.1% level.
func ksOldAgainstKeyed(t *testing.T, bench string, heterogeneous bool, n int) (d, critical float64) {
	t.Helper()
	tr, err := benchgen.Build(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := variation.DefaultConfig(tr.BoundingBox().Expand(100))
	cfg.Heterogeneous = heterogeneous
	cfg.RandomFrac, cfg.SpatialFrac, cfg.InterDieFrac = 0.15, 0.15, 0.15
	model, err := variation.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	res, err := core.Insert(tr, core.Options{Library: lib, Model: model, SelectQuantile: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileMC(tr, lib, res.Assignment, nil, model)
	if err != nil {
		t.Fatal(err)
	}
	keyed := make([]float64, n)
	stats.RunShards(stats.Shard{Count: n}, 0, func(sh stats.Shard) { prog.sample(keyed, 1, sh) })
	old := oldStreamSample(prog, model.Space, n, 1)
	return ksTwoSample(old, keyed), 1.949 * math.Sqrt(2/float64(n))
}

// TestKeyedStreamMatchesOldStream checks that the keyed stream draws the
// root RAT of the WID-buffered r1 from the same distribution as the
// stream it replaced, under both spatial models.
func TestKeyedStreamMatchesOldStream(t *testing.T) {
	for _, heterogeneous := range []bool{true, false} {
		d, critical := ksOldAgainstKeyed(t, "r1", heterogeneous, 20000)
		t.Logf("r1 heterogeneous=%v: KS %.4f (0.1%% critical %.4f)", heterogeneous, d, critical)
		if d > critical {
			t.Errorf("r1 heterogeneous=%v: KS distance %.4f between the old and keyed streams, critical %.4f",
				heterogeneous, d, critical)
		}
	}
}
