package rctree

// BufferValues are the electrical values of one buffer instance: input
// capacitance C (fF), intrinsic delay T (ps) and output resistance R (kΩ).
// For deterministic evaluation these are the nominal library values; for
// Monte-Carlo evaluation they are one sampled realization.
type BufferValues struct {
	C, T, R float64
}

// Assignment maps node IDs to buffer instances. Nodes absent from the map
// are unbuffered.
type Assignment map[NodeID]BufferValues

// Evaluation is the result of an Elmore evaluation of a buffered tree.
type Evaluation struct {
	// RootRAT is the required arrival time at the driver output including
	// the driver delay DriverR·L_root (ps). Larger is better.
	RootRAT float64
	// RootLoad is the downstream capacitance seen by the driver (fF).
	RootLoad float64
}

// Evaluate computes the required arrival time at the root of a buffered
// tree under the Elmore delay model with π-model wires, mirroring the
// three key DP operations of eq. 25–30 exactly:
//
//   - sink:   (L, T) = (CapLoad, RAT)
//   - buffer: applied at a node after its subtree is merged:
//     (L, T) → (C_b, T − T_b − R_b·L)
//   - wire:   edge of length l up to the parent:
//     L → L + c·l,  T → T − r·l·L − ½·r·c·l²
//   - merge:  L = ΣL_i, T = min T_i
//
// It is the independent re-evaluation oracle used to verify DP results,
// and the reference the compiled Monte-Carlo evaluator (Program) is
// tested against bit for bit. See EvaluateSized for the wire-sizing
// variant this delegates to.
func Evaluate(t *Tree, buffers Assignment) (Evaluation, error) {
	return EvaluateSized(t, buffers, nil)
}

// WireDelay returns the Elmore delay of a wire of length l loaded by
// downstream capacitance load, under the tree's wire parasitics — the
// amount the wire operation subtracts from T.
func (t *Tree) WireDelay(l, load float64) float64 {
	return t.Wire.R*l*load + 0.5*t.Wire.R*t.Wire.C*l*l
}
