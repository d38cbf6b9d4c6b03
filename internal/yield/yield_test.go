package yield

import (
	"math"
	"slices"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

func testSetup(t *testing.T, sinks int, seed int64) (*rctree.Tree, *variation.Model, device.Library) {
	t.Helper()
	tr, err := benchgen.Random(benchgen.Spec{Sinks: sinks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	return tr, model, device.DefaultLibrary()
}

// someAssignment puts the mid-size buffer on every third buffer position.
func someAssignment(tr *rctree.Tree) map[rctree.NodeID]int {
	out := make(map[rctree.NodeID]int)
	k := 0
	for i := range tr.Nodes {
		if tr.Nodes[i].BufferOK {
			if k%3 == 0 {
				out[tr.Nodes[i].ID] = 1
			}
			k++
		}
	}
	return out
}

func TestPropagateDeterministicMatchesElmore(t *testing.T) {
	tr, _, lib := testSetup(t, 35, 3)
	assign := someAssignment(tr)
	rat, err := Propagate(tr, lib, assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rat.IsDeterministic() {
		t.Error("nil-model propagation has variation terms")
	}
	bv := make(rctree.Assignment, len(assign))
	for id, bi := range assign {
		b := lib[bi]
		bv[id] = rctree.BufferValues{C: b.Cb0, T: b.Tb0, R: b.Rb}
	}
	ev, err := rctree.Evaluate(tr, bv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rat.Nominal-ev.RootRAT) > 1e-9 {
		t.Errorf("Propagate %g != Elmore %g", rat.Nominal, ev.RootRAT)
	}
}

func TestPropagateValidatesInput(t *testing.T) {
	tr, model, lib := testSetup(t, 5, 1)
	if _, err := Propagate(tr, lib, map[rctree.NodeID]int{99: 0}, model); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := Propagate(tr, lib, map[rctree.NodeID]int{tr.Root: 0}, model); err == nil {
		t.Error("buffer at driver accepted")
	}
	if _, err := Propagate(tr, lib, map[rctree.NodeID]int{1: 99}, model); err == nil {
		t.Error("out-of-range buffer index accepted")
	}
	bad := tr.Clone()
	bad.Wire.C = 0
	if _, err := Propagate(bad, lib, nil, model); err == nil {
		t.Error("invalid tree accepted")
	}
}

func TestMonteCarloMatchesCanonical(t *testing.T) {
	// Figure 6's claim: the canonical model predicts the MC RAT
	// distribution accurately.
	tr, model, lib := testSetup(t, 40, 8)
	assign := someAssignment(tr)
	rat, err := Propagate(tr, lib, assign, model)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := MonteCarlo(tr, lib, assign, model, 20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	mean, v := stats.MeanVar(samples)
	sigma := math.Sqrt(v)
	if math.Abs(mean-rat.Nominal) > 4*sigma/math.Sqrt(float64(len(samples)))+1e-3*math.Abs(rat.Nominal) {
		t.Errorf("MC mean %.4f vs canonical %.4f", mean, rat.Nominal)
	}
	cs := rat.Sigma(model.Space)
	if cs > 0 && math.Abs(sigma-cs)/cs > 0.1 {
		t.Errorf("MC sigma %.4f vs canonical %.4f", sigma, cs)
	}
	// Distribution shape: KS distance against the canonical normal.
	ks, err := stats.KSNormal(samples, rat.Nominal, cs)
	if err != nil {
		t.Fatal(err)
	}
	if ks > 0.05 {
		t.Errorf("KS distance MC vs canonical normal = %.4f", ks)
	}
}

func TestMonteCarloDeterministicSeed(t *testing.T) {
	tr, model, lib := testSetup(t, 10, 4)
	assign := someAssignment(tr)
	a, err := MonteCarlo(tr, lib, assign, model, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(tr, lib, assign, model, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MonteCarlo not reproducible for fixed seed")
		}
	}
}

func TestMonteCarloParallelDeterministic(t *testing.T) {
	tr, model, lib := testSetup(t, 20, 15)
	assign := someAssignment(tr)
	// Identical output for different worker counts, including 1.
	one, err := MonteCarloParallel(tr, lib, assign, nil, model, 1000, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := MonteCarloParallel(tr, lib, assign, nil, model, 1000, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1000 || len(many) != 1000 {
		t.Fatalf("lengths %d, %d", len(one), len(many))
	}
	for i := range one {
		if one[i] != many[i] {
			t.Fatalf("sample %d differs: %g vs %g", i, one[i], many[i])
		}
	}
	// The serial sampler reads the same stream.
	serial, err := MonteCarlo(tr, lib, assign, model, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(serial, many) {
		t.Error("serial and parallel samplers drew different samples")
	}
}

func TestMonteCarloParallelValidation(t *testing.T) {
	tr, model, lib := testSetup(t, 5, 1)
	if _, err := MonteCarloParallel(tr, lib, nil, nil, nil, 10, 1, 2); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := MonteCarloParallel(tr, lib, nil, nil, model, 0, 1, 2); err == nil {
		t.Error("zero samples accepted")
	}
	// Fewer samples than shards still works.
	out, err := MonteCarloParallel(tr, lib, someAssignment(tr), nil, model, 3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("len = %d", len(out))
	}
}

func TestMonteCarloValidation(t *testing.T) {
	tr, model, lib := testSetup(t, 5, 1)
	if _, err := MonteCarlo(tr, lib, nil, nil, 10, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := MonteCarlo(tr, lib, nil, model, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := MonteCarlo(tr, lib, map[rctree.NodeID]int{1: 99}, model, 10, 1); err == nil {
		t.Error("bad buffer index accepted")
	}
	if _, err := MonteCarlo(tr, lib, map[rctree.NodeID]int{1234: 0}, model, 10, 1); err == nil {
		t.Error("bad node accepted")
	}
}

func TestYieldAtTarget(t *testing.T) {
	samples := []float64{-10, -5, 0, 5, 10}
	if got := YieldAtTarget(samples, 0); got != 0.6 {
		t.Errorf("yield = %g, want 0.6", got)
	}
	if got := YieldAtTarget(samples, -100); got != 1 {
		t.Errorf("yield = %g, want 1", got)
	}
	if got := YieldAtTarget(samples, 100); got != 0 {
		t.Errorf("yield = %g, want 0", got)
	}
	if got := YieldAtTarget(nil, 0); got != 0 {
		t.Errorf("empty yield = %g", got)
	}
}

func TestNormalYieldAtTarget(t *testing.T) {
	space := variation.NewSpace()
	id := space.Add(variation.ClassRandom, 1, "x")
	rat := variation.NewForm(-100, []variation.Term{{ID: id, Coef: 10}})
	// Target at the mean: 50%.
	if got := NormalYieldAtTarget(rat, space, -100); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("yield at mean = %g", got)
	}
	// One sigma below the mean: ~84%.
	if got := NormalYieldAtTarget(rat, space, -110); math.Abs(got-0.8413447460685429) > 1e-9 {
		t.Errorf("yield at mean-sigma = %g", got)
	}
	// Deterministic form: step.
	det := variation.Const(-100)
	if NormalYieldAtTarget(det, space, -99) != 0 || NormalYieldAtTarget(det, space, -101) != 1 {
		t.Error("deterministic yield not a step")
	}
}

func TestEvaluateReport(t *testing.T) {
	tr, model, lib := testSetup(t, 20, 6)
	assign := someAssignment(tr)
	rep, err := Evaluate(tr, lib, assign, model, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumBuffers != len(assign) {
		t.Errorf("NumBuffers = %d, want %d", rep.NumBuffers, len(assign))
	}
	if rep.Sigma <= 0 {
		t.Error("sigma not positive under variation")
	}
	// The 5%-tile is below the mean by 1.645 sigma.
	want := rep.Mean - 1.6448536269514722*rep.Sigma
	if math.Abs(rep.YieldRAT-want) > 1e-9 {
		t.Errorf("YieldRAT = %g, want %g", rep.YieldRAT, want)
	}
	if _, err := Evaluate(tr, lib, assign, model, 0); err == nil {
		t.Error("quantile 0 accepted")
	}
	if _, err := Evaluate(tr, lib, assign, model, 1); err == nil {
		t.Error("quantile 1 accepted")
	}
	if _, err := Evaluate(tr, lib, assign, model, math.NaN()); err == nil {
		t.Error("quantile NaN accepted")
	}
}

// TestD2DAssignmentEvaluatedUnderWIDModel mirrors the Tables 3–4 flow:
// an assignment optimized under one model must be evaluable under another
// (the full WID model) without errors.
func TestD2DAssignmentEvaluatedUnderWIDModel(t *testing.T) {
	tr, widModel, lib := testSetup(t, 25, 7)
	assign := someAssignment(tr)
	rep, err := Evaluate(tr, lib, assign, widModel, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rep.YieldRAT >= rep.Mean {
		t.Error("5th-percentile RAT above the mean")
	}
}
