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
	d, err := Compile(tree, lib, assign, wires, model)
	if err != nil {
		return variation.Form{}, err
	}
	return d.rootRAT(nil), nil
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

// NormalYieldAtTarget returns P(RAT >= target) for RAT ~ N(mean, sigma).
func NormalYieldAtTarget(mean, sigma, target float64) float64 {
	if sigma == 0 {
		if mean >= target {
			return 1
		}
		return 0
	}
	return 1 - stats.Phi((target-mean)/sigma)
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
	d, err := Compile(tree, lib, assign, nil, model)
	if err != nil {
		return Report{}, err
	}
	rat := d.rootRAT(nil)
	return Report{
		Mean:       rat.Nominal,
		Sigma:      rat.Sigma(d.Space),
		YieldRAT:   rat.Quantile(q, d.Space),
		NumBuffers: len(assign),
	}, nil
}
