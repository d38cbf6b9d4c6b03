package core

import (
	"math"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
	"vabuf/internal/yield"
)

// bruteForceSized enumerates every (buffer, wire) assignment on a tiny
// tree and returns the best nominal root RAT.
func bruteForceSized(t *testing.T, tree *rctree.Tree, lib device.Library, wlib []rctree.WireChoice) float64 {
	t.Helper()
	var positions, edges []rctree.NodeID
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if n.BufferOK {
			positions = append(positions, n.ID)
		}
		if n.ID != tree.Root && n.WireLen > 0 {
			edges = append(edges, n.ID)
		}
	}
	bufChoices := len(lib) + 1
	total := 1
	for range positions {
		total *= bufChoices
	}
	for range edges {
		total *= len(wlib)
	}
	if total > 1<<22 {
		t.Fatalf("sized brute force space too large: %d", total)
	}
	best := math.Inf(-1)
	bufs := make(rctree.Assignment)
	wires := make(rctree.WireAssignment)
	for code := 0; code < total; code++ {
		clear(bufs)
		clear(wires)
		c := code
		for _, pos := range positions {
			pick := c % bufChoices
			c /= bufChoices
			if pick > 0 {
				b := lib[pick-1]
				bufs[pos] = rctree.BufferValues{C: b.Cb0, T: b.Tb0, R: b.Rb}
			}
		}
		for _, e := range edges {
			wires[e] = wlib[c%len(wlib)].Params
			c /= len(wlib)
		}
		ev, err := rctree.EvaluateSized(tree, bufs, wires)
		if err != nil {
			t.Fatal(err)
		}
		if ev.RootRAT > best {
			best = ev.RootRAT
		}
	}
	return best
}

func TestWireSizingMatchesBruteForce(t *testing.T) {
	lib := smallLib()[:1]
	wlib := rctree.DefaultWireLibrary()[:2]
	for _, seed := range []int64{1, 2, 3} {
		tr, err := benchgen.Random(benchgen.Spec{Sinks: 3, Seed: seed, DieSide: 6000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Insert(tr, Options{Library: lib, WireLibrary: wlib})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceSized(t, tr, lib, wlib)
		if math.Abs(res.Mean-want) > 1e-9 {
			t.Errorf("seed %d: DP sized RAT %.6f != brute force %.6f", seed, res.Mean, want)
		}
	}
}

func TestWireSizingNeverHurts(t *testing.T) {
	// The wire library contains the tree default (w1), so enabling wire
	// sizing can only improve the deterministic optimum.
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 60, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	fixed, err := Insert(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	sized, err := Insert(tr, Options{Library: lib, WireLibrary: rctree.DefaultWireLibrary()})
	if err != nil {
		t.Fatal(err)
	}
	if sized.Mean < fixed.Mean-1e-9 {
		t.Errorf("wire sizing made things worse: %.3f vs %.3f", sized.Mean, fixed.Mean)
	}
	if sized.WireAssignment == nil {
		t.Fatal("no wire assignment returned")
	}
	if fixed.WireAssignment != nil {
		t.Error("fixed-wire run returned a wire assignment")
	}
	// Every positive-length non-root edge got a sizing decision.
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		if n.ID == tr.Root || n.WireLen == 0 {
			continue
		}
		if _, ok := sized.WireAssignment[n.ID]; !ok {
			t.Fatalf("edge of node %d missing from wire assignment", n.ID)
		}
	}
}

func TestWireSizingReEvaluates(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 40, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	wlib := rctree.DefaultWireLibrary()
	res, err := Insert(tr, Options{Library: lib, WireLibrary: wlib})
	if err != nil {
		t.Fatal(err)
	}
	wires := make(rctree.WireAssignment, len(res.WireAssignment))
	for id, wi := range res.WireAssignment {
		wires[id] = wlib[wi].Params
	}
	ev, err := rctree.EvaluateSized(tr, nominalAssignment(lib, res.Assignment), wires)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.RootRAT-res.Mean) > 1e-6 {
		t.Errorf("sized assignment re-evaluates to %.4f, DP said %.4f", ev.RootRAT, res.Mean)
	}
}

func TestWireSizingStatisticalConsistency(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 25, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	lib := device.DefaultLibrary()
	wlib := rctree.DefaultWireLibrary()
	res, err := Insert(tr, Options{Library: lib, Model: model, WireLibrary: wlib})
	if err != nil {
		t.Fatal(err)
	}
	wires := make(rctree.WireAssignment, len(res.WireAssignment))
	for id, wi := range res.WireAssignment {
		wires[id] = wlib[wi].Params
	}
	rat, err := yield.PropagateSized(tr, lib, res.Assignment, wires, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rat.Nominal-res.Mean) > 1e-6 {
		t.Errorf("propagated mean %.4f != DP %.4f", rat.Nominal, res.Mean)
	}
	if math.Abs(rat.Sigma(model.Space)-res.Sigma) > 1e-6 {
		t.Errorf("propagated sigma %.4f != DP %.4f", rat.Sigma(model.Space), res.Sigma)
	}
	// Monte Carlo on the sized design agrees with the canonical model.
	samples, err := yield.MonteCarloParallel(tr, lib, res.Assignment, wires, model, 10000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	if math.Abs(mean-res.Mean) > 0.01*math.Abs(res.Mean) {
		t.Errorf("MC mean %.2f vs model %.2f", mean, res.Mean)
	}
}

func TestMaxLoadConstraint(t *testing.T) {
	// A buffer with a tight MaxLoad must never appear where the downstream
	// load exceeds it.
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 30, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	lib := device.Library{
		{Name: "weak", Cb0: 1, Tb0: 20, Rb: 0.8, MaxLoad: 30},
		{Name: "strong", Cb0: 4, Tb0: 20, Rb: 0.1},
	}
	res, err := Insert(tr, Options{Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive the load each buffer drives by evaluating the subtree it
	// owns: walk the tree bottom-up exactly as Evaluate does and record
	// the load at each buffered node just before the buffer op.
	loads := bufferInputLoads(t, tr, lib, res.Assignment)
	for id, bi := range res.Assignment {
		if lib[bi].MaxLoad > 0 && loads[id] > lib[bi].MaxLoad+1e-9 {
			t.Errorf("buffer %q at node %d drives %.2f fF > MaxLoad %.2f",
				lib[bi].Name, id, loads[id], lib[bi].MaxLoad)
		}
	}
	// The constrained weak buffer is cheap (small Cb): without the
	// constraint it would be used heavily; make sure the run still
	// inserted buffers at all.
	if res.NumBuffers == 0 {
		t.Fatal("no buffers inserted")
	}
	// An infeasibly constrained library falls back to the strong type or
	// no buffering rather than erroring.
	allWeak := device.Library{{Name: "w", Cb0: 1, Tb0: 20, Rb: 0.8, MaxLoad: 0.5}}
	res2, err := Insert(tr, Options{Library: allWeak})
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumBuffers != 0 {
		t.Errorf("infeasible MaxLoad still inserted %d buffers", res2.NumBuffers)
	}
}

// bufferInputLoads computes the downstream load seen by each buffer in
// the assignment.
func bufferInputLoads(t *testing.T, tr *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int) map[rctree.NodeID]float64 {
	t.Helper()
	loads := make(map[rctree.NodeID]float64, len(assign))
	type lt struct{ L float64 }
	vals := make([]lt, tr.Len())
	for _, id := range tr.PostOrder() {
		n := tr.Node(id)
		var cur lt
		switch n.Kind {
		case rctree.KindSink:
			cur = lt{L: n.CapLoad}
		default:
			for _, cid := range n.Children {
				c := tr.Node(cid)
				child := vals[cid]
				child.L += tr.Wire.C * c.WireLen
				cur.L += child.L
			}
		}
		if bi, ok := assign[id]; ok {
			loads[id] = cur.L
			cur = lt{L: lib[bi].Cb0}
		}
		vals[id] = cur
	}
	return loads
}

func TestWireSizingOptionsValidation(t *testing.T) {
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []rctree.WireChoice{{Name: "x", Params: rctree.WireParams{R: 0, C: 1}}}
	if _, err := Insert(tr, Options{Library: smallLib(), WireLibrary: bad}); err == nil {
		t.Error("invalid wire library accepted")
	}
}
