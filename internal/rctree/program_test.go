package rctree_test

import (
	"math"
	"math/rand"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/geom"
	"vabuf/internal/rctree"
)

// randomCase draws a legal buffer assignment with random buffer values
// and random per-edge wire overrides for tree.
func randomCase(rng *rand.Rand, tree *rctree.Tree) (rctree.Assignment, rctree.WireAssignment) {
	bufs := make(rctree.Assignment)
	wires := make(rctree.WireAssignment)
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if n.BufferOK && rng.Float64() < 0.3 {
			bufs[n.ID] = rctree.BufferValues{
				C: 0.5 + 10*rng.Float64(),
				T: 5 + 45*rng.Float64(),
				R: 0.05 + 2*rng.Float64(),
			}
		}
		if n.ID != tree.Root && rng.Float64() < 0.3 {
			wires[n.ID] = rctree.WireParams{R: 1e-5 + 4e-4*rng.Float64(), C: 0.05 + 0.5*rng.Float64()}
		}
	}
	return bufs, wires
}

// oneLane serves vals[k] as the one lane of slot k to RootRATs.
func oneLane(vals []rctree.BufferValues) func(k int) []rctree.BufferValues {
	return func(k int) []rctree.BufferValues { return vals[k : k+1] }
}

// compiledRAT compiles (tree, bufs, wires) and evaluates it with the
// assignment's values in slot order.
func compiledRAT(tree *rctree.Tree, bufs rctree.Assignment, wires rctree.WireAssignment) (float64, error) {
	ids := make([]rctree.NodeID, 0, len(bufs))
	for id := range bufs {
		ids = append(ids, id)
	}
	p, err := rctree.Compile(tree, ids, wires)
	if err != nil {
		return 0, err
	}
	vals := make([]rctree.BufferValues, len(p.Buffers))
	for k, id := range p.Buffers {
		vals[k] = bufs[id]
	}
	out := make([]float64, 1)
	p.RootRATs(oneLane(vals), out, p.Scratch(1))
	return out[0], nil
}

// checkAgainstReference asserts that Compile accepts exactly what
// EvaluateSized accepts and that the compiled RootRAT is bit-identical.
func checkAgainstReference(t *testing.T, tree *rctree.Tree, bufs rctree.Assignment, wires rctree.WireAssignment) {
	t.Helper()
	ref, refErr := rctree.EvaluateSized(tree, bufs, wires)
	got, err := compiledRAT(tree, bufs, wires)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("Compile error %v, EvaluateSized error %v", err, refErr)
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(ref.RootRAT) {
		t.Fatalf("compiled RootRAT %v (%#x) != EvaluateSized %v (%#x)",
			got, math.Float64bits(got), ref.RootRAT, math.Float64bits(ref.RootRAT))
	}
}

// TestProgramMatchesEvaluateSized is the differential test of the
// compiled evaluator: random benchgen trees, random legal assignments
// with random values and random wire overrides, compared bit for bit.
// One program is re-evaluated with fresh values on reused scratch, the
// way a Monte-Carlo shard uses it.
func TestProgramMatchesEvaluateSized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		tree, err := benchgen.Random(benchgen.Spec{Sinks: 1 + rng.Intn(80), Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		bufs, wires := randomCase(rng, tree)
		if trial%4 == 0 {
			wires = nil
		}
		ids := make([]rctree.NodeID, 0, len(bufs))
		for id := range bufs {
			ids = append(ids, id)
		}
		p, err := rctree.Compile(tree, ids, wires)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]rctree.BufferValues, len(p.Buffers))
		scratch := p.Scratch(1)
		out := make([]float64, 1)
		for draw := 0; draw < 5; draw++ {
			for k, id := range p.Buffers {
				v := rctree.BufferValues{C: 0.5 + 10*rng.Float64(), T: 5 + 45*rng.Float64(), R: 0.05 + 2*rng.Float64()}
				bufs[id] = v
				vals[k] = v
			}
			ref, err := rctree.EvaluateSized(tree, bufs, wires)
			if err != nil {
				t.Fatal(err)
			}
			p.RootRATs(oneLane(vals), out, scratch)
			if got := out[0]; math.Float64bits(got) != math.Float64bits(ref.RootRAT) {
				t.Fatalf("trial %d draw %d: compiled %v != reference %v", trial, draw, got, ref.RootRAT)
			}
		}
	}
}

// TestCompileRejectsLikeEvaluateSized: each illegal input EvaluateSized
// rejects is rejected by Compile too.
func TestCompileRejectsLikeEvaluateSized(t *testing.T) {
	tree, err := benchgen.Random(benchgen.Spec{Sinks: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	off := tree.Clone()
	off.Nodes[3].BufferOK = false
	cases := []struct {
		name  string
		tree  *rctree.Tree
		bufs  rctree.Assignment
		wires rctree.WireAssignment
	}{
		{"buffer on root driver", tree, rctree.Assignment{tree.Root: {C: 1, T: 1, R: 1}}, nil},
		{"buffer off a legal position", off, rctree.Assignment{3: {C: 1, T: 1, R: 1}}, nil},
		{"buffer node negative", tree, rctree.Assignment{-1: {C: 1, T: 1, R: 1}}, nil},
		{"buffer node past end", tree, rctree.Assignment{rctree.NodeID(tree.Len()): {C: 1, T: 1, R: 1}}, nil},
		{"wire on root", tree, nil, rctree.WireAssignment{tree.Root: {R: 1e-4, C: 0.2}}},
		{"wire node past end", tree, nil, rctree.WireAssignment{rctree.NodeID(tree.Len()): {R: 1e-4, C: 0.2}}},
		{"wire zero R", tree, nil, rctree.WireAssignment{2: {R: 0, C: 0.2}}},
		{"wire negative C", tree, nil, rctree.WireAssignment{2: {R: 1e-4, C: -0.2}}},
		{"childless driver", rctree.New(rctree.DefaultWire, 0.3, geom.Point{}), nil, nil},
	}
	for _, c := range cases {
		if _, err := rctree.EvaluateSized(c.tree, c.bufs, c.wires); err == nil {
			t.Fatalf("%s: EvaluateSized accepted it", c.name)
		}
		if _, err := compiledRAT(c.tree, c.bufs, c.wires); err == nil {
			t.Errorf("%s: Compile accepted it", c.name)
		}
		// Mixed into an otherwise legal random case, it still fails both.
		bufs, wires := randomCase(rng, c.tree)
		for id, v := range c.bufs {
			bufs[id] = v
		}
		for id, v := range c.wires {
			wires[id] = v
		}
		checkAgainstReference(t, c.tree, bufs, wires)
	}
	if _, err := rctree.Compile(tree, []rctree.NodeID{2, 2}, nil); err == nil {
		t.Error("Compile accepted a node buffered twice")
	}
}

// FuzzCompile differentially fuzzes the compiled evaluator against
// EvaluateSized: a random benchgen tree with a random legal case, plus
// one fuzzer-chosen buffer and wire override that may be illegal (any
// node ID, any value) and optionally a cleared BufferOK flag. Compile
// must fail exactly when EvaluateSized does, and otherwise match its
// RootRAT bit for bit.
func FuzzCompile(f *testing.F) {
	f.Add(int64(1), uint8(10), int32(3), int32(4), 1e-4, 0.2, 2.5, uint8(0))
	f.Add(int64(2), uint8(1), int32(0), int32(1), 1e-4, 0.2, 1.0, uint8(0))
	f.Add(int64(3), uint8(30), int32(-1), int32(0), 0.0, 0.2, 1.0, uint8(1))
	f.Add(int64(4), uint8(5), int32(2), int32(2), -1.0, math.NaN(), math.Inf(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, sinks uint8, bufID, wireID int32, r, c, v float64, flags uint8) {
		tree, err := benchgen.Random(benchgen.Spec{Sinks: 1 + int(sinks%48), Seed: seed})
		if err != nil {
			t.Skip(err)
		}
		rng := rand.New(rand.NewSource(seed))
		bufs, wires := randomCase(rng, tree)
		if flags&1 != 0 {
			tree.Nodes[rng.Intn(tree.Len())].BufferOK = false
		}
		if flags&2 != 0 {
			wires = nil
		}
		bufs[rctree.NodeID(bufID)] = rctree.BufferValues{C: v, T: v, R: v}
		if wires != nil {
			wires[rctree.NodeID(wireID)] = rctree.WireParams{R: r, C: c}
		}
		checkAgainstReference(t, tree, bufs, wires)
	})
}
