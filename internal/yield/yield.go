// Package yield evaluates a *fixed* buffered routing tree under a process
// variation model: canonical (first-order) propagation of the root RAT
// distribution, per-sample Monte-Carlo evaluation with deterministic
// Elmore, and the timing-yield metrics of §5.3 (the q%-yield RAT and the
// yield at a target RAT). It is the measurement side of Tables 3–5 and
// Figure 6, deliberately independent from the optimizer in internal/core.
package yield

import (
	"fmt"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// Propagate pushes canonical (L, T) forms bottom-up through a buffered
// tree using exactly the three key operations of §4.2 and returns the root
// RAT form including the driver delay. A nil model yields the
// deterministic evaluation as a constant form.
func Propagate(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	model *variation.Model) (variation.Form, error) {
	return PropagateSized(tree, lib, assign, nil, model)
}

// PropagateSized is Propagate with per-edge wire overrides, evaluating a
// simultaneously buffered and wire-sized design (the [8] extension).
func PropagateSized(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	wires rctree.WireAssignment, model *variation.Model) (variation.Form, error) {
	if err := tree.Validate(); err != nil {
		return variation.Form{}, err
	}
	space := variation.NewSpace()
	if model != nil {
		space = model.Space
	}
	for id, bi := range assign {
		if id < 0 || int(id) >= tree.Len() {
			return variation.Form{}, fmt.Errorf("yield: assignment node %d out of range", id)
		}
		if !tree.Node(id).BufferOK {
			return variation.Form{}, fmt.Errorf("yield: node %d is not a buffer position", id)
		}
		if bi < 0 || bi >= len(lib) {
			return variation.Form{}, fmt.Errorf("yield: buffer index %d out of library range", bi)
		}
	}
	for id, wp := range wires {
		if id < 0 || int(id) >= tree.Len() || id == tree.Root {
			return variation.Form{}, fmt.Errorf("yield: wire assignment node %d invalid", id)
		}
		if wp.R <= 0 || wp.C <= 0 {
			return variation.Form{}, fmt.Errorf("yield: non-positive wire override at node %d", id)
		}
	}
	type lt struct{ L, T variation.Form }
	vals := make([]lt, tree.Len())
	for _, id := range tree.PostOrder() {
		n := tree.Node(id)
		var cur lt
		switch n.Kind {
		case rctree.KindSink:
			cur = lt{L: variation.Const(n.CapLoad), T: variation.Const(n.RAT)}
		default:
			first := true
			for _, cid := range n.Children {
				cn := tree.Node(cid)
				child := vals[cid]
				wp := tree.Wire
				if ov, ok := wires[cid]; ok {
					wp = ov
				}
				r, c := wp.R, wp.C
				if l := cn.WireLen; l > 0 {
					child.T = child.T.AXPY(-r*l, child.L).Shift(-0.5 * r * c * l * l)
					child.L = child.L.Shift(c * l)
				}
				if first {
					cur = child
					first = false
				} else {
					cur.L = cur.L.Add(child.L)
					cur.T = variation.Min(cur.T, child.T, space).Form
				}
			}
		}
		if bi, ok := assign[id]; ok {
			b := lib[bi]
			dev := variation.Form{}
			if model != nil {
				dev = model.Deviation(int(id), n.Loc)
			}
			cbForm := variation.Const(b.Cb0).Add(dev.Scale(b.Cb0))
			tbForm := variation.Const(b.Tb0).Add(dev.Scale(b.Tb0))
			cur = lt{
				L: cbForm,
				T: cur.T.Sub(tbForm).AXPY(-b.Rb, cur.L),
			}
		}
		vals[id] = cur
	}
	root := vals[tree.Root]
	return root.T.AXPY(-tree.DriverR, root.L), nil
}

// MonteCarlo draws n realizations of the model's sources and evaluates the
// buffered tree's root RAT with deterministic Elmore per sample — the
// ground-truth distribution the canonical model approximates (Figure 6).
// The model must be non-nil.
func MonteCarlo(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	model *variation.Model, n int, seed int64) ([]float64, error) {
	return MonteCarloSized(tree, lib, assign, nil, model, n, seed)
}

// MonteCarloSized is MonteCarlo with per-edge wire overrides.
func MonteCarloSized(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	wires rctree.WireAssignment, model *variation.Model, n int, seed int64) ([]float64, error) {
	return MonteCarloParallel(tree, lib, assign, wires, model, n, seed, 1)
}

// MonteCarloParallel is MonteCarloSized with the samples split over
// worker goroutines (<= 0 selects GOMAXPROCS). Sample i depends only on
// (seed, i), so the result is the same for every worker count.
func MonteCarloParallel(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	wires rctree.WireAssignment, model *variation.Model, n int, seed int64, workers int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("yield: sample count %d must be positive", n)
	}
	prog, err := CompileMC(tree, lib, assign, wires, model)
	if err != nil {
		return nil, err
	}
	// Workers share the read-only program and write disjoint ranges of out.
	out := make([]float64, n)
	stats.RunShards(stats.Shard{Count: n}, workers,
		func(sh stats.Shard) { prog.sample(out, seed, sh) })
	return out, nil
}

// YieldAtTarget returns the fraction of samples meeting the target RAT
// (sample RAT >= target: the arrival-time budget is satisfied).
func YieldAtTarget(samples []float64, target float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	ok := 0
	for _, s := range samples {
		if s >= target {
			ok++
		}
	}
	return float64(ok) / float64(len(samples))
}

// NormalYieldAtTarget returns P(RAT >= target) for the canonical form.
func NormalYieldAtTarget(rat variation.Form, space *variation.Space, target float64) float64 {
	sigma := rat.Sigma(space)
	if sigma == 0 {
		if rat.Nominal >= target {
			return 1
		}
		return 0
	}
	return 1 - stats.Phi((target-rat.Nominal)/sigma)
}

// Report summarizes one buffered design under a model: the figures of
// merit of Tables 3–5.
type Report struct {
	// Mean and Sigma describe the canonical root RAT.
	Mean, Sigma float64
	// YieldRAT is the q%-tile RAT (paper: q = 0.05, the "95% timing
	// yield" RAT — the design meets this RAT with 95% probability).
	YieldRAT float64
	// NumBuffers is the number of inserted buffers.
	NumBuffers int
}

// Evaluate produces a Report for a buffered tree under the model using
// canonical propagation. q is the yield quantile (0.05 for 95% yield).
func Evaluate(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	model *variation.Model, q float64) (Report, error) {
	if !(q > 0 && q < 1) {
		return Report{}, fmt.Errorf("yield: quantile %g outside (0, 1)", q)
	}
	rat, err := Propagate(tree, lib, assign, model)
	if err != nil {
		return Report{}, err
	}
	space := variation.NewSpace()
	if model != nil {
		space = model.Space
	}
	return Report{
		Mean:       rat.Nominal,
		Sigma:      rat.Sigma(space),
		YieldRAT:   rat.Quantile(q, space),
		NumBuffers: len(assign),
	}, nil
}
