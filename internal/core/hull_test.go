package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// randomLibrary draws a library with the shapes that stress the hull
// kernel: 2–18 cells on a random width ladder, a random subset inverting,
// a random subset drive-capped. The first cell is always a plain
// unconstrained buffer so every tree stays feasible.
func randomLibrary(rng *rand.Rand) device.Library {
	n := 2 + rng.Intn(17)
	lib := make(device.Library, 0, n)
	for i := 0; i < n; i++ {
		w := math.Pow(2, rng.Float64()*6) // 1..64 µm
		b := device.BufferType{
			Name: fmt.Sprintf("t%d", i),
			Cb0:  0.33125 * w,
			Tb0:  40 + rng.Float64()*40,
			Rb:   2.0299 / w,
		}
		if i > 0 {
			if rng.Intn(3) == 0 {
				b.Inverting = true
			}
			if rng.Intn(2) == 0 {
				b.MaxLoad = b.Cb0 * (20 + rng.Float64()*200)
			}
		}
		lib = append(lib, b)
	}
	return lib
}

// assertHullRun checks a hull-mode Insert against the exact-mode baseline
// on the same tree/options: the entire Result must be bit-identical, and
// the generation ledger must balance — every candidate the kernel skipped
// is one the exact path both generated and pruned.
func assertHullRun(t *testing.T, label string, hull, exact *Result) {
	t.Helper()
	if !reflect.DeepEqual(hull.Assignment, exact.Assignment) {
		t.Errorf("%s: assignments differ (%d vs %d buffers)", label, len(hull.Assignment), len(exact.Assignment))
	}
	if !reflect.DeepEqual(hull.WireAssignment, exact.WireAssignment) {
		t.Errorf("%s: wire assignments differ", label)
	}
	if math.Float64bits(hull.RAT.Nominal) != math.Float64bits(exact.RAT.Nominal) ||
		!reflect.DeepEqual(hull.RAT.Terms, exact.RAT.Terms) {
		t.Errorf("%s: RAT differs: %v vs %v (%d vs %d terms)",
			label, hull.RAT.Nominal, exact.RAT.Nominal, len(hull.RAT.Terms), len(exact.RAT.Terms))
	}
	if math.Float64bits(hull.Sigma) != math.Float64bits(exact.Sigma) ||
		math.Float64bits(hull.Objective) != math.Float64bits(exact.Objective) {
		t.Errorf("%s: sigma/objective differ", label)
	}
	if hull.RootCandidates != exact.RootCandidates || hull.NumBuffers != exact.NumBuffers {
		t.Errorf("%s: root candidates %d/%d buffers %d/%d",
			label, hull.RootCandidates, exact.RootCandidates, hull.NumBuffers, exact.NumBuffers)
	}
	h, e := hull.Stats, exact.Stats
	if h.Merges != e.Merges || h.Nodes != e.Nodes || h.PeakList != e.PeakList {
		t.Errorf("%s: merges/nodes/peak differ: {%d %d %d} vs {%d %d %d}",
			label, h.Merges, h.Nodes, h.PeakList, e.Merges, e.Nodes, e.PeakList)
	}
	if h.Generated+h.HullSkipped != e.Generated || h.Pruned+h.HullSkipped != e.Pruned {
		t.Errorf("%s: generation ledger off: gen %d + skipped %d != %d, or pruned %d + %d != %d",
			label, h.Generated, h.HullSkipped, e.Generated, h.Pruned, h.HullSkipped, e.Pruned)
	}
	if e.HullSites != 0 || e.HullSkipped != 0 || e.HullPeak != 0 {
		t.Errorf("%s: exact run reported hull stats %+v", label, e)
	}
}

// hullConfigs are the regimes of the hull differential check, by name.
var hullConfigs = []string{"det", "2P-0.5", "2P-0.9", "2P-L0.9-T0.5", "2P-L0.5-T0.9", "wiresize"}

// checkHullDifferential solves a random net with a random library in the
// named regime and holds the hull kernel to the exact kernel's serial
// run: serially, and at par workers (2–4) through a cold subtree cache,
// whose Generated, Pruned, Merges and ArenaUsedBytes must also equal
// the serial hull run's. It then edits one sink's RAT and re-solves at
// par workers from that cache, so restored lists flow through the
// recycled frontier columns too; the warm run must equal a fresh exact
// serial solve of the edited net. It returns the warm run's cache hits.
func checkHullDifferential(t *testing.T, seed int64, cfg string, par int) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 977))
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 6 + rng.Intn(35), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	lib := randomLibrary(rng)
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	wireLib := []rctree.WireChoice{
		{Name: "w1", Params: tr.Wire},
		{Name: "w2", Params: rctree.WireParams{R: tr.Wire.R * 0.55, C: tr.Wire.C * 1.7}},
	}
	opts := map[string]Options{
		"det":          {Library: lib},
		"2P-0.5":       {Library: lib, Model: model},
		"2P-0.9":       {Library: lib, Model: model, PbarL: 0.9, PbarT: 0.9},
		"2P-L0.9-T0.5": {Library: lib, Model: model, PbarL: 0.9, PbarT: 0.5},
		"2P-L0.5-T0.9": {Library: lib, Model: model, PbarL: 0.5, PbarT: 0.9},
		"wiresize":     {Library: lib, Model: model, WireLibrary: wireLib},
	}[cfg]
	run := func(tr *rctree.Tree, hull HullMode, par int, cache *SubtreeCache) *Result {
		t.Helper()
		o := opts
		o.HullBuffering, o.Parallelism = hull, par
		if cache != nil {
			o.SubtreeCache = cache
		}
		res, err := Insert(tr, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact := run(tr, HullOff, 1, nil)
	serial := run(tr, HullAuto, 1, nil)
	assertHullRun(t, "serial/auto", serial, exact)
	cache := NewSubtreeCache(0)
	got := run(tr, HullAuto, par, cache)
	assertHullRun(t, "parallel", got, exact)
	g, s := got.Stats, serial.Stats
	if g.Generated != s.Generated || g.Pruned != s.Pruned || g.Merges != s.Merges || g.ArenaUsedBytes != s.ArenaUsedBytes {
		t.Errorf("parallel at %d workers: gen %d pruned %d merges %d arena %d B, serial %d %d %d %d B",
			par, g.Generated, g.Pruned, g.Merges, g.ArenaUsedBytes, s.Generated, s.Pruned, s.Merges, s.ArenaUsedBytes)
	}

	edited := tr.Clone()
	sinks := edited.Sinks()
	edited.Node(sinks[rng.Intn(len(sinks))]).RAT -= 5 + 50*rng.Float64()
	warm := run(edited, HullAuto, par, cache)
	assertSameSolution(t, "warm", warm, run(edited, HullOff, 1, nil))
	return warm.Stats.SubtreeHits
}

// TestHullDifferentialFuzz is the randomized half of the bit-identity
// contract: random trees × random libraries × every 2P pbar flavor, hull
// on vs. off, serial and at 2–4 workers, cold and from a warm subtree
// cache. Some warm re-solve must restore a cached subtree.
func TestHullDifferentialFuzz(t *testing.T) {
	hits := int64(0)
	for seed := int64(1); seed <= 12; seed++ {
		for _, cfg := range hullConfigs {
			t.Run(fmt.Sprintf("seed%d/%s", seed, cfg), func(t *testing.T) {
				hits += checkHullDifferential(t, seed, cfg, 2+int(seed)%3)
			})
		}
	}
	if hits == 0 {
		t.Error("no warm re-solve restored a cached subtree")
	}
}

// FuzzFrontierReuse drives the hull differential check with fuzzed
// nets, regimes and worker counts. Every frontier column of these runs
// comes from and goes back to a worker's column pool, so a column
// recycled while still read, or handed out twice, shows up as a
// differing float or counter.
func FuzzFrontierReuse(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(2), uint8(1))
	f.Add(int64(3), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, cfg, par uint8) {
		checkHullDifferential(t, seed, hullConfigs[int(cfg)%len(hullConfigs)], 2+int(par%3))
	})
}

// TestHullFallbackUnsorted drives the certification guard directly: an
// input frontier that is not weakly load-sorted must take the exact path
// and count a fallback, producing the same candidates.
func TestHullFallbackUnsorted(t *testing.T) {
	lib := device.DefaultLibrary()
	mkInput := func(hull bool) (*worker, polarityLists) {
		w := testWorker(Rule2P)
		w.eng.opts.Library = lib
		w.eng.hull = hull
		f := w.mkLeafFrontier([2]float64{5, -10}, [2]float64{2, -30}, [2]float64{9, -5})
		return w, polarityLists{f, nil}
	}
	wh, plh := mkInput(true)
	hullOut := wh.addBuffers(0, plh)
	if wh.stats.HullFallbacks != 1 {
		t.Fatalf("HullFallbacks = %d, want 1", wh.stats.HullFallbacks)
	}
	if wh.stats.HullSites != 0 || wh.stats.HullSkipped != 0 {
		t.Fatalf("fallback site still counted hull stats: %+v", wh.stats)
	}
	we, ple := mkInput(false)
	exactOut := we.addBuffers(0, ple)
	if wh.stats.Generated != we.stats.Generated {
		t.Fatalf("generated %d vs exact %d", wh.stats.Generated, we.stats.Generated)
	}
	for p := 0; p < 2; p++ {
		ho, eo := hullOut[p], exactOut[p]
		if ho.len() != eo.len() {
			t.Fatalf("polarity %d: %d vs %d candidates", p, ho.len(), eo.len())
		}
		for i := 0; i < ho.len(); i++ {
			if math.Float64bits(ho.ln[i]) != math.Float64bits(eo.ln[i]) ||
				math.Float64bits(ho.tn[i]) != math.Float64bits(eo.tn[i]) {
				t.Fatalf("polarity %d candidate %d differs", p, i)
			}
		}
	}
}

// TestMaxLoadNominalSemantics pins the drive-capability contract for
// variation-aware runs: MaxLoad is checked against the nominal load only.
// A candidate whose mean load fits but whose +1σ load exceeds the cap is
// still buffered — by the exact rule and the certain-dominance rule
// alike, the two the pbar 0.9 run takes under HullOff and HullAuto. If
// this test breaks because a yield-aware check (nominal + k·σ) was
// introduced, that is a deliberate semantic change: update DESIGN.md §14
// and the addBuffers comment together with this test.
func TestMaxLoadNominalSemantics(t *testing.T) {
	const (
		nominal = 50.0
		sigma   = 30.0
	)
	lib := device.Library{{Name: "b", Cb0: 1, Tb0: 10, Rb: 1, MaxLoad: nominal + 1}}
	for _, mode := range []HullMode{HullOff, HullAuto} {
		opts := Options{Rule: Rule2P, PbarL: 0.9, PbarT: 0.9, Library: lib}
		space := variation.NewSpace()
		e := &engine{opts: opts, space: space, hull: mode != HullOff}
		w := &worker{eng: e, terms: variation.NewArena()}
		w.prov = provWriter{pa: &e.prov}
		w.prn = newPruner(space, opts, &w.stats, &w.cols)
		f := newFrontier(new(colPool), 2, w.prn.needSigmas())
		// Mean load under the cap, +1σ load far over it: must be buffered.
		pushStatCand(f, space, nominal, sigma, -20, 1)
		// Mean load over the cap: must be filtered, however small its σ.
		pushStatCand(f, space, nominal+2, 0.01, -5, 1)
		out := w.addBuffers(0, polarityLists{f, nil})
		buffered := out[0].len() - 2 // minus the two original candidates
		if buffered != 1 {
			t.Fatalf("mode %v: %d buffered candidates, want exactly 1 (nominal-only MaxLoad)", mode, buffered)
		}
		if math.Float64bits(out[0].ln[2]) != math.Float64bits(lib[0].Cb0) {
			t.Fatalf("mode %v: buffered candidate has load %g, want Cb0", mode, out[0].ln[2])
		}
	}
}

// TestHullModeParsing covers the flag/DTO surface of HullMode.
func TestHullModeParsing(t *testing.T) {
	cases := map[string]HullMode{"": HullAuto, "auto": HullAuto, "off": HullOff}
	for in, want := range cases {
		got, err := ParseHullMode(in)
		if err != nil || got != want {
			t.Errorf("ParseHullMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"banana", "on"} {
		if _, err := ParseHullMode(bad); err == nil {
			t.Errorf("ParseHullMode accepted %q", bad)
		}
	}
	if HullAuto.String() != "auto" || HullOff.String() != "off" {
		t.Errorf("String() round-trip broken: %v %v", HullAuto, HullOff)
	}
}
