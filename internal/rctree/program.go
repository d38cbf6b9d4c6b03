package rctree

import (
	"fmt"
	"slices"
)

// Program is a buffered tree compiled for repeated evaluation: the
// post-order walk of EvaluateSized flattened into arrays indexed by
// post-order position, with every map lookup and validation resolved
// once by Compile. Only the buffer values change between evaluations,
// which is what a Monte-Carlo run needs. A Program is read-only after
// Compile, so goroutines may share one, each with its own scratch.
type Program struct {
	// Node maps a post-order position to its node ID. Children come
	// before their parent; the root is last.
	Node []NodeID
	// Kids lists child positions grouped by parent, each group in the
	// parent's Children order: the children of position p are
	// Kids[KidStart[p]:KidStart[p+1]]. Sinks have an empty range.
	Kids     []int32
	KidStart []int32
	// Edge holds the wire from each position up to its parent, with the
	// per-edge wire override applied (unused at the root).
	Edge []Edge
	// Leaf holds (L, T) = (CapLoad, RAT) at sink positions.
	Leaf []LT
	// Slot is the buffer slot of each position, or -1 when unbuffered.
	// Slot k holds the buffer at node Buffers[k].
	Slot    []int32
	Buffers []NodeID
	// DriverR is the tree's driver resistance.
	DriverR float64
}

// Edge is one wire of a compiled tree: its length and the three
// constants of the wire operation, each computed with the expression
// order of EvaluateSized so the compiled walk reproduces it bit for bit.
type Edge struct {
	Len  float64 // l
	RL   float64 // R·l
	Half float64 // ½·R·C·l²
	CL   float64 // C·l
}

// LT is a (downstream load, required time) pair: a position's state in
// the bottom-up walk.
type LT struct {
	L, T float64
}

// Compile compiles a tree, the set of buffered nodes and per-edge wire
// overrides into a Program. It rejects exactly the inputs EvaluateSized
// rejects: a buffered node outside the tree or off a legal buffer
// position, a wire override outside the tree, on the root or
// non-positive, and an internal node without children. It also rejects a
// node listed twice in buffered. Slots follow ascending node ID.
func Compile(t *Tree, buffered []NodeID, wires WireAssignment) (*Program, error) {
	buffers := slices.Clone(buffered)
	slices.Sort(buffers)
	for i, id := range buffers {
		if id < 0 || int(id) >= len(t.Nodes) {
			return nil, fmt.Errorf("rctree: assignment references node %d outside tree", id)
		}
		if !t.Nodes[id].BufferOK {
			return nil, fmt.Errorf("rctree: node %d is not a legal buffer position", id)
		}
		if i > 0 && buffers[i-1] == id {
			return nil, fmt.Errorf("rctree: node %d buffered twice", id)
		}
	}
	for id, wp := range wires {
		if id < 0 || int(id) >= len(t.Nodes) {
			return nil, fmt.Errorf("rctree: wire assignment references node %d outside tree", id)
		}
		if id == t.Root {
			return nil, fmt.Errorf("rctree: wire assignment on the root (no parent edge)")
		}
		if wp.R <= 0 || wp.C <= 0 {
			return nil, fmt.Errorf("rctree: non-positive wire override %+v at node %d", wp, id)
		}
	}
	order := t.PostOrder()
	n := len(order)
	p := &Program{
		Node:     order,
		Kids:     make([]int32, 0, n),
		KidStart: make([]int32, n+1),
		Edge:     make([]Edge, n),
		Leaf:     make([]LT, n),
		Slot:     make([]int32, n),
		Buffers:  buffers,
		DriverR:  t.DriverR,
	}
	pos := make([]int32, len(t.Nodes))
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range order {
		pos[id] = int32(i)
	}
	for i, id := range order {
		nd := &t.Nodes[id]
		p.KidStart[i] = int32(len(p.Kids))
		if nd.Kind == KindSink {
			p.Leaf[i] = LT{L: nd.CapLoad, T: nd.RAT}
		} else {
			if len(nd.Children) == 0 {
				return nil, fmt.Errorf("rctree: internal node %d has no children", id)
			}
			for _, cid := range nd.Children {
				p.Kids = append(p.Kids, pos[cid])
			}
		}
		wp := t.Wire
		if ov, ok := wires[id]; ok {
			wp = ov
		}
		l := nd.WireLen
		p.Edge[i] = Edge{Len: l, RL: wp.R * l, Half: 0.5 * wp.R * wp.C * l * l, CL: wp.C * l}
		p.Slot[i] = -1
	}
	p.KidStart[n] = int32(len(p.Kids))
	for k, id := range buffers {
		if i := pos[id]; i >= 0 { // a buffer off the root's subtree is never applied
			p.Slot[i] = int32(k)
		}
	}
	return p, nil
}

// Len returns the number of positions (nodes reachable from the root).
func (p *Program) Len() int { return len(p.Node) }

// RootRAT evaluates the compiled tree with bufs[k] as the values of the
// buffer in slot k and returns EvaluateSized's RootRAT, bit for bit.
// vals is scratch of length Len(); it is overwritten.
func (p *Program) RootRAT(bufs []BufferValues, vals []LT) float64 {
	for i := range p.Node {
		cur := p.Leaf[i]
		ks, ke := p.KidStart[i], p.KidStart[i+1]
		for j := ks; j < ke; j++ {
			k := p.Kids[j]
			e := &p.Edge[k]
			child := vals[k]
			child.T -= e.RL * child.L
			child.T -= e.Half
			child.L += e.CL
			if j == ks {
				cur = child
			} else {
				cur.L += child.L
				if child.T < cur.T {
					cur.T = child.T
				}
			}
		}
		if s := p.Slot[i]; s >= 0 {
			b := &bufs[s]
			cur = LT{L: b.C, T: cur.T - b.T - b.R*cur.L}
		}
		vals[i] = cur
	}
	root := vals[len(p.Node)-1]
	return root.T - p.DriverR*root.L
}
