package skew

import (
	"math"
	"math/rand"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/geom"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
	"vabuf/internal/yield"
)

// FuzzDesignEvaluators differentially fuzzes the evaluators of a fixed
// buffered design. A random benchgen tree (or, with flags&8, a
// driver-only one) gets a random legal assignment and wire overrides,
// plus one fuzzer-chosen buffer node, library index and wire override
// that may be illegal; flags&1 clears a random BufferOK flag, flags&2
// drops the wire overrides and flags&4 the fuzzer's buffer. Properties:
//
//   - yield.PropagateSized (under a model and under none), yield.CompileMC
//     and rctree.EvaluateSized accept and reject the same inputs, and so
//     do yield.Criticality and Propagate, which take no wire overrides,
//     on the cases without one. EvaluateSized takes buffer values, so a
//     library index out of range counts as its rejection.
//   - Under a nil model the propagated nominal equals EvaluateSized's
//     RootRAT within 1e-9.
func FuzzDesignEvaluators(f *testing.F) {
	f.Add(int64(1), uint8(10), int32(3), int16(1), int32(4), 1e-4, 0.2, uint8(0))
	f.Add(int64(2), uint8(1), int32(0), int16(0), int32(1), 1e-4, 0.2, uint8(2))
	f.Add(int64(3), uint8(30), int32(-1), int16(2), int32(0), 0.0, 0.2, uint8(1))
	f.Add(int64(4), uint8(5), int32(2), int16(9), int32(2), 2e-4, 0.1, uint8(3))
	f.Add(int64(5), uint8(7), int32(0), int16(0), int32(0), 1e-4, 0.2, uint8(14))
	f.Add(int64(6), uint8(20), int32(5), int16(-1), int32(7), 1e-4, math.Inf(1), uint8(0))
	lib := device.DefaultLibrary()
	wlib := rctree.DefaultWireLibrary()
	f.Fuzz(func(t *testing.T, seed int64, sinks uint8, bufID int32, libIdx int16, wireID int32, r, c float64, flags uint8) {
		tree := rctree.New(rctree.DefaultWire, 0.3, geom.Point{})
		if flags&8 == 0 {
			var err error
			if tree, err = benchgen.Random(benchgen.Spec{Sinks: 1 + int(sinks%48), Seed: seed}); err != nil {
				t.Skip(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		assign := make(map[rctree.NodeID]int)
		wires := make(rctree.WireAssignment)
		for i := range tree.Nodes {
			n := &tree.Nodes[i]
			if n.BufferOK && rng.Float64() < 0.3 {
				assign[n.ID] = rng.Intn(len(lib))
			}
			if n.ID != tree.Root && rng.Float64() < 0.3 {
				wires[n.ID] = wlib[rng.Intn(len(wlib))].Params
			}
		}
		if flags&1 != 0 {
			tree.Nodes[rng.Intn(tree.Len())].BufferOK = false
		}
		if flags&2 != 0 {
			wires = nil
		} else {
			wires[rctree.NodeID(wireID)] = rctree.WireParams{R: r, C: c}
		}
		if flags&4 == 0 {
			assign[rctree.NodeID(bufID)] = int(libIdx)
		}
		model, err := variation.NewModel(variation.DefaultConfig(tree.BoundingBox().Expand(100)))
		if err != nil {
			t.Fatal(err)
		}

		bufs := make(rctree.Assignment, len(assign))
		libOK := true
		for id, bi := range assign {
			if bi < 0 || bi >= len(lib) {
				libOK = false
				continue
			}
			b := lib[bi]
			bufs[id] = rctree.BufferValues{C: b.Cb0, T: b.Tb0, R: b.Rb}
		}
		ref, refErr := rctree.EvaluateSized(tree, bufs, wires)
		legal := libOK && refErr == nil
		verdict := func(name string, err error) {
			t.Helper()
			if (err == nil) != legal {
				t.Fatalf("%s error %v; EvaluateSized error %v, library index in range %v", name, err, refErr, libOK)
			}
		}
		_, err = yield.PropagateSized(tree, lib, assign, wires, model)
		verdict("PropagateSized", err)
		_, err = yield.CompileMC(tree, lib, assign, wires, model)
		verdict("CompileMC", err)
		nominal, err := yield.PropagateSized(tree, lib, assign, wires, nil)
		verdict("PropagateSized (nil model)", err)
		if legal {
			a, b := nominal.Nominal, ref.RootRAT
			if !(math.Abs(a-b) <= 1e-9 || a == b || (math.IsNaN(a) && math.IsNaN(b))) {
				t.Fatalf("nil-model nominal %v, EvaluateSized RootRAT %v", a, b)
			}
		}
		if wires == nil {
			_, err = yield.Criticality(tree, lib, assign, model)
			verdict("Criticality", err)
			_, _, err = Propagate(tree, lib, assign, model)
			verdict("Propagate", err)
		}
	})
}
