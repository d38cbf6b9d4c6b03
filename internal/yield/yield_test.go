package yield

import (
	"math"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/geom"
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
	// A driver-only tree passes Tree.Validate but has nothing to drive.
	driverOnly := rctree.New(rctree.DefaultWire, 0.3, geom.Point{})
	for _, m := range []*variation.Model{model, nil} {
		if _, err := Propagate(driverOnly, lib, nil, m); err == nil {
			t.Errorf("driver-only tree accepted (model %v)", m != nil)
		}
		if _, err := Evaluate(driverOnly, lib, nil, m, 0.05); err == nil {
			t.Errorf("Evaluate accepted a driver-only tree (model %v)", m != nil)
		}
	}
	if _, err := MonteCarloParallel(driverOnly, lib, nil, nil, model, 10, 1, 1); err == nil {
		t.Error("MonteCarloParallel accepted a driver-only tree")
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
	samples, err := MonteCarloParallel(tr, lib, assign, nil, model, 20000, 42, 1)
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
	a, err := MonteCarloParallel(tr, lib, assign, nil, model, 50, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloParallel(tr, lib, assign, nil, model, 50, 9, 1)
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
	if _, err := MonteCarloParallel(tr, lib, nil, nil, nil, 10, 1, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := MonteCarloParallel(tr, lib, nil, nil, model, 0, 1, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := MonteCarloParallel(tr, lib, map[rctree.NodeID]int{1: 99}, nil, model, 10, 1, 1); err == nil {
		t.Error("bad buffer index accepted")
	}
	if _, err := MonteCarloParallel(tr, lib, map[rctree.NodeID]int{1234: 0}, nil, model, 10, 1, 1); err == nil {
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
	id := space.Add(variation.ClassRandom, 1)
	rat := variation.NewForm(-100, []variation.Term{{ID: id, Coef: 10}})
	mean, sigma := rat.Nominal, rat.Sigma(space)
	// Target at the mean: 50%.
	if got := NormalYieldAtTarget(mean, sigma, -100); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("yield at mean = %g", got)
	}
	// One sigma below the mean: ~84%.
	if got := NormalYieldAtTarget(mean, sigma, -110); math.Abs(got-0.8413447460685429) > 1e-9 {
		t.Errorf("yield at mean-sigma = %g", got)
	}
	// Zero sigma: step.
	if NormalYieldAtTarget(-100, 0, -99) != 0 || NormalYieldAtTarget(-100, 0, -101) != 1 {
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

// TestPropagateOutlivesItsWalk: the canonical walk runs on an arena it
// releases on return, so the root form it hands back must not share the
// arena's storage: later walks, which reuse the released slabs, leave an
// earlier result unchanged.
func TestPropagateOutlivesItsWalk(t *testing.T) {
	tr, model, lib := testSetup(t, 40, 5)
	assign := someAssignment(tr)
	rat, err := Propagate(tr, lib, assign, model)
	if err != nil {
		t.Fatal(err)
	}
	if rat.IsDeterministic() {
		t.Fatal("WID propagation has no variation terms")
	}
	want := rat.Clone()
	other, _, _ := testSetup(t, 60, 6)
	for range 4 {
		if _, err := Propagate(other, lib, someAssignment(other), model); err != nil {
			t.Fatal(err)
		}
	}
	if math.Float64bits(rat.Nominal) != math.Float64bits(want.Nominal) || len(rat.Terms) != len(want.Terms) {
		t.Fatalf("root form changed after later walks: %v, was %v", rat, want)
	}
	for i := range rat.Terms {
		if rat.Terms[i] != want.Terms[i] {
			t.Fatalf("root form term %d changed after later walks: %v, was %v", i, rat.Terms[i], want.Terms[i])
		}
	}
}

// walkPerPosition is the straightforward form of Walk: one state per
// post-order position, each read by its parent.
func walkPerPosition[S any](d *Design, ops FormOps[S]) S {
	p := d.Tree
	vals := make([]S, p.Len())
	for i := range p.Node {
		var cur S
		ks, ke := p.KidStart[i], p.KidStart[i+1]
		if ks == ke {
			cur = ops.Sink(p.Leaf[i])
		}
		for j := ks; j < ke; j++ {
			k := p.Kids[j]
			child := vals[k]
			if e := &p.Edge[k]; e.Len > 0 {
				child = ops.Wire(child, e)
			}
			if j == ks {
				cur = child
			} else {
				cur = ops.Merge(cur, child, p.Kids[ks:j+1])
			}
		}
		if s := p.Slot[i]; s >= 0 {
			sl := &d.slots[s]
			cb := variation.Const(sl.cb0).Add(sl.dev.Scale(sl.cb0))
			tb := variation.Const(sl.tb0).Add(sl.dev.Scale(sl.tb0))
			cur = ops.Buffer(cur, cb, tb, sl.rb)
		}
		vals[i] = cur
	}
	return vals[len(vals)-1]
}

// caterpillar builds a spine of n Steiner nodes, each with a sink as its
// first child and the rest of the spine as its second, so every sink's
// state waits while the spine below it is walked: n states at once.
func caterpillar(n int) *rctree.Tree {
	tr := rctree.New(rctree.DefaultWire, 0.4, geom.Point{})
	spine := tr.AddSteiner(tr.Root, geom.Point{X: 10}, 10)
	for k := 0; k < n; k++ {
		x := float64(20 * (k + 1))
		tr.AddSink(spine, geom.Point{X: x, Y: 30}, 30+float64(k%7), 5+float64(k%3), -float64(k%11))
		spine = tr.AddSteiner(spine, geom.Point{X: x}, 20)
	}
	tr.AddSink(spine, geom.Point{X: float64(20*n + 20)}, 15, 8, 0)
	return tr
}

// TestWalkStackMatchesPerPosition checks the post-order stack of Walk
// against one state per position, bit for bit, on random nets and on
// caterpillars whose waiting states overflow the stack's fixed buffer.
func TestWalkStackMatchesPerPosition(t *testing.T) {
	var trees []*rctree.Tree
	for seed := int64(1); seed <= 4; seed++ {
		tr, _, _ := testSetup(t, 20+25*int(seed), seed)
		trees = append(trees, tr)
	}
	trees = append(trees, caterpillar(3), caterpillar(200))
	lib := device.DefaultLibrary()
	for ti, tr := range trees {
		model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
		if err != nil {
			t.Fatal(err)
		}
		d, err := Compile(tr, lib, someAssignment(tr), nil, model)
		if err != nil {
			t.Fatal(err)
		}
		ops := FormOps[lt]{
			Sink: func(v rctree.LT) lt { return lt{L: variation.Const(v.L), T: variation.Const(v.T)} },
			Wire: func(s lt, e *rctree.Edge) lt {
				return lt{L: s.L.Shift(e.CL), T: s.T.AXPY(-e.RL, s.L).Shift(-e.Half)}
			},
			Merge: func(acc, child lt, kids []int32) lt {
				return lt{L: acc.L.Add(child.L), T: variation.Min(acc.T, child.T, d.Space).Form}
			},
			Buffer: func(s lt, c, tb variation.Form, r float64) lt {
				return lt{L: c, T: s.T.Sub(tb).AXPY(-r, s.L)}
			},
		}
		got, want := Walk(d, nil, ops), walkPerPosition(d, ops)
		for _, pair := range [][2]variation.Form{{got.L, want.L}, {got.T, want.T}} {
			g, w := pair[0], pair[1]
			if math.Float64bits(g.Nominal) != math.Float64bits(w.Nominal) || len(g.Terms) != len(w.Terms) {
				t.Fatalf("tree %d: stack walk %v, per-position walk %v", ti, g, w)
			}
			for i := range g.Terms {
				if g.Terms[i] != w.Terms[i] {
					t.Fatalf("tree %d: term %d differs: %v vs %v", ti, i, g.Terms[i], w.Terms[i])
				}
			}
		}
	}
}
