package skew

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

func skewLib() device.Library {
	return device.Library{
		{Name: "s", Cb0: 1.2, Tb0: 25, Rb: 0.4},
		{Name: "l", Cb0: 3.5, Tb0: 25, Rb: 0.15},
	}
}

// unbalancedTree has one long and one short branch to equal sinks — a
// worst case for skew without balancing buffers.
func unbalancedTree() *rctree.Tree {
	tr := rctree.New(rctree.DefaultWire, 0.3, geom.Point{})
	tr.AddSink(tr.Root, geom.Point{X: 3000, Y: 0}, 3000, 10, 0)
	tr.AddSink(tr.Root, geom.Point{X: -200, Y: 0}, 200, 10, 0)
	return tr
}

// exactSkew computes the deterministic skew of an assignment by direct
// evaluation (Propagate with nil model is exact when forms are constant).
func exactSkew(t *testing.T, tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int) float64 {
	t.Helper()
	s, _, err := Propagate(tree, lib, assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsDeterministic() {
		t.Fatal("deterministic skew has variation terms")
	}
	return s.Nominal
}

// bruteForceMinSkew enumerates every assignment on a tiny tree.
func bruteForceMinSkew(t *testing.T, tree *rctree.Tree, lib device.Library) float64 {
	t.Helper()
	var positions []rctree.NodeID
	for i := range tree.Nodes {
		if tree.Nodes[i].BufferOK {
			positions = append(positions, tree.Nodes[i].ID)
		}
	}
	choices := len(lib) + 1
	total := 1
	for range positions {
		total *= choices
		if total > 1<<20 {
			t.Fatal("space too large")
		}
	}
	best := math.Inf(1)
	for code := 0; code < total; code++ {
		assign := make(map[rctree.NodeID]int)
		c := code
		for _, pos := range positions {
			pick := c % choices
			c /= choices
			if pick > 0 {
				assign[pos] = pick - 1
			}
		}
		if s := exactSkew(t, tree, lib, assign); s < best {
			best = s
		}
	}
	return best
}

func TestDeterministicSkewMatchesBruteForce(t *testing.T) {
	lib := skewLib()
	for _, seed := range []int64{1, 2, 3} {
		tr, err := benchgen.Random(benchgen.Spec{Sinks: 4, Seed: seed, DieSide: 5000, RATSpread: -1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Minimize(tr, Options{Library: lib, Epsilon: -1})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceMinSkew(t, tr, lib)
		if math.Abs(res.SkewMean-want) > 1e-9 {
			t.Errorf("seed %d: DP skew %.6f != brute force %.6f", seed, res.SkewMean, want)
		}
		// The reported assignment re-evaluates to the reported skew.
		if got := exactSkew(t, tr, lib, res.Assignment); math.Abs(got-res.SkewMean) > 1e-9 {
			t.Errorf("seed %d: assignment re-evaluates to %.6f, DP said %.6f", seed, got, res.SkewMean)
		}
	}
}

func TestBufferBalancingReducesSkew(t *testing.T) {
	tr := unbalancedTree()
	lib := skewLib()
	bare := exactSkew(t, tr, lib, nil)
	if bare <= 0 {
		t.Fatalf("unbalanced tree should have positive skew, got %g", bare)
	}
	res, err := Minimize(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkewMean >= bare {
		t.Errorf("optimizer did not reduce skew: %.2f vs bare %.2f", res.SkewMean, bare)
	}
	if res.NumBuffers == 0 {
		t.Error("no buffers inserted to balance the tree")
	}
}

func TestSymmetricHTreeHasZeroDeterministicSkew(t *testing.T) {
	tr, err := benchgen.HTree(3, 6000, 10, rctree.WireParams{}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	lib := skewLib()
	res, err := Minimize(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SkewMean) > 1e-9 {
		t.Errorf("symmetric H-tree skew = %g, want 0", res.SkewMean)
	}
	if res.SkewSigma != 0 {
		t.Errorf("deterministic run has sigma %g", res.SkewSigma)
	}
}

func TestSkewOptimizerAvoidsNeedlessBuffers(t *testing.T) {
	// With deterministic wires, an unbuffered symmetric tree has exactly
	// zero skew, so a pure skew optimizer must insert nothing even under
	// a variation model (buffers only add variance).
	tr, err := benchgen.HTree(2, 4000, 10, rctree.WireParams{}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Minimize(tr, Options{Library: skewLib(), Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBuffers != 0 || res.SkewQ > 1e-9 {
		t.Errorf("pure skew optimum should be unbuffered with zero skew; got %d buffers, skewQ %g",
			res.NumBuffers, res.SkewQ)
	}
}

func TestVariationSkewOnBufferedHTree(t *testing.T) {
	// A fixed buffered clock tree under random per-device variation
	// develops skew even though it is perfectly symmetric: the canonical
	// model predicts its distribution and MC agrees.
	tr, err := benchgen.HTree(3, 6000, 10, rctree.WireParams{}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	lib := skewLib()
	// Buffer every first-level quadrant node.
	assign := make(map[rctree.NodeID]int)
	top := tr.Node(tr.Root).Children[0]
	for _, q := range tr.Node(top).Children {
		assign[q] = 1
	}
	skewForm, _, err := Propagate(tr, lib, assign, model)
	if err != nil {
		t.Fatal(err)
	}
	if skewForm.Nominal <= 0 {
		t.Fatalf("buffered symmetric tree skew mean = %g, want positive", skewForm.Nominal)
	}
	samples, err := MonteCarlo(tr, lib, assign, model, 8000, 5)
	if err != nil {
		t.Fatal(err)
	}
	mcMean, _ := stats.MeanVar(samples)
	// The canonical MAX/MIN approximation carries Clark-level error on
	// extreme-value statistics; 20% agreement on the mean is the right
	// order.
	if math.Abs(mcMean-skewForm.Nominal) > 0.2*mcMean {
		t.Errorf("MC skew mean %.3f vs model %.3f", mcMean, skewForm.Nominal)
	}
	for _, s := range samples {
		if s < -1e-9 {
			t.Fatalf("negative sampled skew %g", s)
		}
	}
}

func TestPropagateConsistentWithMinimize(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 12, Seed: 9, RATSpread: -1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	lib := skewLib()
	res, err := Minimize(tr, Options{Library: lib, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	s, lat, err := Propagate(tr, lib, res.Assignment, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Nominal-res.SkewMean) > 1e-6 {
		t.Errorf("propagated skew %.4f != DP %.4f", s.Nominal, res.SkewMean)
	}
	if math.Abs(lat.Nominal-res.LatencyMean) > 1e-6 {
		t.Errorf("propagated latency %.4f != DP %.4f", lat.Nominal, res.LatencyMean)
	}
}

func TestLatencyWeightTradesOff(t *testing.T) {
	tr := unbalancedTree()
	lib := skewLib()
	pure, err := Minimize(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Minimize(tr, Options{Library: lib, LatencyWeight: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A heavy latency weight must not produce worse latency than the pure
	// skew optimum.
	if weighted.LatencyMean > pure.LatencyMean+1e-9 {
		t.Errorf("latency weight increased latency: %.2f vs %.2f",
			weighted.LatencyMean, pure.LatencyMean)
	}
}

func TestMinimizeValidation(t *testing.T) {
	tr := unbalancedTree()
	lib := skewLib()
	if _, err := Minimize(tr, Options{}); err == nil {
		t.Error("empty library accepted")
	}
	if _, err := Minimize(tr, Options{Library: lib, SkewQuantile: 1.5}); err == nil {
		t.Error("bad quantile accepted")
	}
	if _, err := Minimize(tr, Options{Library: lib, SkewQuantile: math.NaN()}); err == nil {
		t.Error("NaN quantile accepted")
	}
	if _, err := Minimize(tr, Options{Library: lib, LatencyWeight: -1}); err == nil {
		t.Error("negative latency weight accepted")
	}
	bad := tr.Clone()
	bad.Wire.R = 0
	if _, err := Minimize(bad, Options{Library: lib}); err == nil {
		t.Error("invalid tree accepted")
	}
	if _, err := Minimize(tr, Options{Library: lib, MaxCandidates: 1}); err == nil {
		t.Error("capacity violation not reported")
	}
}

func TestMonteCarloValidation(t *testing.T) {
	tr := unbalancedTree()
	lib := skewLib()
	if _, err := MonteCarlo(tr, lib, nil, nil, 10, 1); err == nil {
		t.Error("nil model accepted")
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MonteCarlo(tr, lib, nil, model, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := MonteCarlo(tr, lib, map[rctree.NodeID]int{1: 99}, model, 10, 1); err == nil {
		t.Error("bad assignment accepted")
	}
	// The root driver is not a legal buffer position: Propagate rejects
	// it, and so must the sampler.
	root := map[rctree.NodeID]int{tr.Root: 0}
	if _, _, err := Propagate(tr, lib, root, model); err == nil {
		t.Error("Propagate accepted a buffer on the root driver")
	}
	if _, err := MonteCarlo(tr, lib, root, model, 10, 1); err == nil {
		t.Error("MonteCarlo accepted a buffer on the root driver")
	}
	bad := unbalancedTree()
	bad.Nodes[1].WireLen = -1
	if _, err := MonteCarlo(bad, lib, nil, model, 10, 1); err == nil {
		t.Error("MonteCarlo accepted an invalid tree")
	}
	a, err := MonteCarlo(tr, lib, map[rctree.NodeID]int{1: 0}, model, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(tr, lib, map[rctree.NodeID]int{1: 0}, model, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MonteCarlo not reproducible")
		}
	}
}
