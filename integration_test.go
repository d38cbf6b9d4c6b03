package vabuf_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"vabuf"
	"vabuf/internal/stats"
)

// fullModel builds the WID model at the headline budget via the public API.
func fullModel(t testing.TB, tree *vabuf.Tree) *vabuf.VariationModel {
	t.Helper()
	cfg := vabuf.DefaultModelConfig(tree)
	cfg.Heterogeneous = true
	cfg.RandomFrac, cfg.SpatialFrac, cfg.InterDieFrac = 0.15, 0.15, 0.15
	m, err := vabuf.NewVariationModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEndToEndPublicAPI walks the full public workflow: generate, optimize
// deterministically and under variation, evaluate both designs under the
// same model, and confirm with Monte Carlo.
func TestEndToEndPublicAPI(t *testing.T) {
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "e2e", Sinks: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	model := fullModel(t, tree)

	nom, err := vabuf.Insert(tree, vabuf.Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	wid, err := vabuf.Insert(tree, vabuf.Options{Library: lib, Model: model})
	if err != nil {
		t.Fatal(err)
	}

	nomRep, err := vabuf.EvaluateYield(tree, lib, nom.Assignment, model, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	widRep, err := vabuf.EvaluateYield(tree, lib, wid.Assignment, model, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's core claim: under the true variation model the
	// variation-aware design wins at the yield quantile. Because the 2P
	// rule prunes by MEAN order (Lemma 4), the quantile-optimal candidate
	// can occasionally be pruned mid-tree, so the win is a strong tendency
	// rather than a per-instance guarantee — allow a 1% margin.
	if nomRep.YieldRAT > widRep.YieldRAT+0.01*math.Abs(widRep.YieldRAT) {
		t.Errorf("NOM yield-RAT %.2f beats WID %.2f by more than 1%%",
			nomRep.YieldRAT, widRep.YieldRAT)
	}
	// Monte Carlo agrees with the canonical model for the WID design.
	samples, err := vabuf.MonteCarloRAT(tree, lib, wid.Assignment, model, 8000, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean, v := stats.MeanVar(samples)
	if math.Abs(mean-widRep.Mean) > 0.01*math.Abs(widRep.Mean) {
		t.Errorf("MC mean %.2f vs canonical %.2f", mean, widRep.Mean)
	}
	if widRep.Sigma > 0 && math.Abs(math.Sqrt(v)-widRep.Sigma)/widRep.Sigma > 0.15 {
		t.Errorf("MC sigma %.2f vs canonical %.2f", math.Sqrt(v), widRep.Sigma)
	}
	// PropagateRAT is consistent with the report.
	rat, err := vabuf.PropagateRAT(tree, lib, wid.Assignment, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rat.Mean()-widRep.Mean) > 1e-9 {
		t.Errorf("PropagateRAT mean %.4f vs report %.4f", rat.Mean(), widRep.Mean)
	}
}

// TestSegmentizeOnlyHelps verifies the van Ginneken property that extra
// legal buffer positions can never hurt the optimum.
func TestSegmentizeOnlyHelps(t *testing.T) {
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "seg", Sinks: 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	base, err := vabuf.Insert(tree, vabuf.Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := vabuf.SegmentizeTree(tree, 200)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := vabuf.Insert(fine, vabuf.Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Mean < base.Mean-1e-9 {
		t.Errorf("more buffer positions made the optimum worse: %.3f vs %.3f",
			refined.Mean, base.Mean)
	}
}

// TestTreeSerializationRoundTrip exercises the facade I/O with a
// re-optimization after the round trip.
func TestTreeSerializationRoundTrip(t *testing.T) {
	tree, err := vabuf.GenerateBenchmark("p1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vabuf.WriteTree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	back, err := vabuf.ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	a, err := vabuf.Insert(tree, vabuf.Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	b, err := vabuf.Insert(back, vabuf.Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean || a.NumBuffers != b.NumBuffers {
		t.Errorf("round-tripped tree optimizes differently: %.3f/%d vs %.3f/%d",
			a.Mean, a.NumBuffers, b.Mean, b.NumBuffers)
	}
}

// TestFacadeErrorsSurface checks the sentinel errors through the facade.
func TestFacadeErrorsSurface(t *testing.T) {
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "err", Sinks: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := fullModel(t, tree)
	_, err = vabuf.Insert(tree, vabuf.Options{
		Library:       vabuf.DefaultLibrary(),
		Model:         model,
		Rule:          vabuf.Rule4P,
		MaxCandidates: 100,
	})
	if !errors.Is(err, vabuf.ErrCapacity) {
		t.Errorf("want ErrCapacity through the facade, got %v", err)
	}
}

// TestNonFiniteTreeRejected: a tree built in code with a NaN wire
// resistance is refused by Insert and PropagateRAT instead of answering
// a NaN RAT.
func TestNonFiniteTreeRejected(t *testing.T) {
	tree, err := vabuf.GenerateBenchmark("p1")
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	good, err := vabuf.Insert(tree, vabuf.Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	tree.Wire.R = math.NaN()
	if res, err := vabuf.Insert(tree, vabuf.Options{Library: lib}); err == nil {
		t.Errorf("Insert accepted a NaN wire resistance: mean %v, %d buffers", res.Mean, res.NumBuffers)
	}
	if rat, err := vabuf.PropagateRAT(tree, lib, good.Assignment, nil); err == nil {
		t.Errorf("PropagateRAT accepted a NaN wire resistance: mean %v", rat.Mean())
	}
}

// TestEvaluateFacade checks the raw Elmore entry point.
func TestEvaluateFacade(t *testing.T) {
	tree := vabuf.NewTree(vabuf.DefaultWire, 0.5, vabuf.Point{})
	tree.AddSink(tree.Root, vabuf.Point{X: 100, Y: 0}, 100, 10, 0)
	rat, load, err := vabuf.Evaluate(tree, nil)
	if err != nil {
		t.Fatal(err)
	}
	if load != 30 {
		t.Errorf("root load = %g, want 30", load)
	}
	if math.Abs(rat-(-15.2)) > 1e-9 {
		t.Errorf("root RAT = %g, want -15.2", rat)
	}
}

// TestCriticalityFacade checks that the criticality map covers every sink
// and concentrates on low-RAT ones.
func TestCriticalityFacade(t *testing.T) {
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "crit", Sinks: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	model := fullModel(t, tree)
	res, err := vabuf.Insert(tree, vabuf.Options{Library: lib, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	crit, err := vabuf.SinkCriticality(tree, lib, res.Assignment, model)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range crit {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("criticalities sum to %g", sum)
	}
}

// TestParallelMCFacade exercises the parallel Monte Carlo through the
// public API.
func TestParallelMCFacade(t *testing.T) {
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "pmc", Sinks: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	model := fullModel(t, tree)
	res, err := vabuf.Insert(tree, vabuf.Options{Library: lib, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	a, err := vabuf.MonteCarloRATParallel(tree, lib, res.Assignment, model, 500, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vabuf.MonteCarloRATParallel(tree, lib, res.Assignment, model, 500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallel MC not deterministic across worker counts")
		}
	}
}

// TestSkewFacade runs the skew minimizer through the public API.
func TestSkewFacade(t *testing.T) {
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{
		Name: "skewf", Sinks: 10, Seed: 8, RATSpread: -1, DieSide: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	res, err := vabuf.MinimizeSkew(tree, vabuf.SkewOptions{Library: lib, LatencyWeight: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	skewForm, _, err := vabuf.PropagateSkew(tree, lib, res.Assignment, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(skewForm.Mean()-res.SkewMean) > 1e-6 {
		t.Errorf("facade skew propagation %.3f != result %.3f", skewForm.Mean(), res.SkewMean)
	}
}

// TestInverterFacade runs polarity-aware insertion through the facade.
func TestInverterFacade(t *testing.T) {
	tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{Name: "invf", Sinks: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lib := append(vabuf.DefaultLibrary(), vabuf.InverterLibrary()...)
	res, err := vabuf.Insert(tree, vabuf.Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	// Parity: every root-to-sink path sees an even number of inversions.
	for _, sink := range tree.Sinks() {
		count := 0
		for id := sink; id >= 0; id = tree.Node(id).Parent {
			if bi, ok := res.Assignment[id]; ok && lib[bi].Inverting {
				count++
			}
		}
		if count%2 != 0 {
			t.Fatalf("sink %d sees odd inversion count %d", sink, count)
		}
	}
}

// TestHTreeFacade smoke-tests the clock-network generator via the facade.
func TestHTreeFacade(t *testing.T) {
	tree, err := vabuf.GenerateHTree(3, 8000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumSinks() != 64 {
		t.Errorf("sinks = %d", tree.NumSinks())
	}
	res, err := vabuf.Insert(tree, vabuf.Options{Library: vabuf.DefaultLibrary()})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBuffers == 0 {
		t.Error("no buffers inserted")
	}
}
