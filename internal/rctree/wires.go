package rctree

import (
	"fmt"
	"math"
)

// WireChoice is one routing option for an edge: a named width/layer with
// its per-unit parasitics. Widening a wire divides its resistance and
// multiplies its area capacitance.
type WireChoice struct {
	Name   string
	Params WireParams
}

// DefaultWireLibrary returns three widths of the default global wire:
// resistance scales as 1/width, capacitance as area·width plus a constant
// fringe term.
func DefaultWireLibrary() []WireChoice {
	const (
		r0     = 1e-4 // kΩ/µm at 1x
		cArea  = 0.12 // fF/µm per width unit
		cFring = 0.08 // fF/µm fringe
	)
	mk := func(w float64) WireParams {
		return WireParams{R: r0 / w, C: cArea*w + cFring}
	}
	return []WireChoice{
		{Name: "w1", Params: mk(1)},
		{Name: "w2", Params: mk(2)},
		{Name: "w4", Params: mk(4)},
	}
}

// WireAssignment maps a node to the wire parasitics of the edge from that
// node up to its parent. Edges absent from the map use the tree default.
type WireAssignment map[NodeID]WireParams

// EvaluateSized is Evaluate with per-edge wire overrides (simultaneous
// buffer insertion and wire sizing, after [8]). A nil wires map reduces to
// Evaluate. Its checks and walk are written independently of Compile's,
// so each is a reference the other is tested against.
func EvaluateSized(t *Tree, buffers Assignment, wires WireAssignment) (Evaluation, error) {
	for id := range buffers {
		if id < 0 || int(id) >= len(t.Nodes) {
			return Evaluation{}, fmt.Errorf("rctree: assignment references node %d outside tree", id)
		}
		if !t.Nodes[id].BufferOK {
			return Evaluation{}, fmt.Errorf("rctree: node %d is not a legal buffer position", id)
		}
	}
	for id, wp := range wires {
		if id < 0 || int(id) >= len(t.Nodes) {
			return Evaluation{}, fmt.Errorf("rctree: wire assignment references node %d outside tree", id)
		}
		if id == t.Root {
			return Evaluation{}, fmt.Errorf("rctree: wire assignment on the root (no parent edge)")
		}
		if !(wp.R > 0 && wp.R <= math.MaxFloat64 && wp.C > 0 && wp.C <= math.MaxFloat64) {
			return Evaluation{}, fmt.Errorf("rctree: wire override %+v at node %d not positive and finite", wp, id)
		}
	}
	type lt struct{ L, T float64 }
	vals := make([]lt, len(t.Nodes))
	for _, id := range t.PostOrder() {
		n := &t.Nodes[id]
		var cur lt
		switch n.Kind {
		case KindSink:
			cur = lt{L: n.CapLoad, T: n.RAT}
		default:
			first := true
			for _, cid := range n.Children {
				c := &t.Nodes[cid]
				child := vals[cid]
				wp := t.Wire
				if ov, ok := wires[cid]; ok {
					wp = ov
				}
				l := c.WireLen
				child.T -= wp.R * l * child.L
				child.T -= 0.5 * wp.R * wp.C * l * l
				child.L += wp.C * l
				if first {
					cur = child
					first = false
				} else {
					cur.L += child.L
					if child.T < cur.T {
						cur.T = child.T
					}
				}
			}
			if first {
				return Evaluation{}, fmt.Errorf("rctree: internal node %d has no children", id)
			}
		}
		if bv, ok := buffers[id]; ok {
			cur = lt{L: bv.C, T: cur.T - bv.T - bv.R*cur.L}
		}
		vals[id] = cur
	}
	root := vals[t.Root]
	return Evaluation{
		RootRAT:  root.T - t.DriverR*root.L,
		RootLoad: root.L,
	}, nil
}
