package rctree

import (
	"fmt"
	"math"
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

	// The plan of RootRATs. live lists, in post order, the positions
	// with a buffer at or below them, and kidOps their children from the
	// first one that is live; blocks is the number of lane blocks the
	// walk holds at once; fixedRAT is the root RAT when no position is
	// live.
	live     []liveNode
	kidOps   []kidOp
	blocks   int
	fixedRAT float64
}

// liveNode is one live position of the blocked walk, evaluated into
// lane block blk. Its state starts at init, the fold of its leading
// buffer-free children (its leaf values at a sink), or, when fromKid is
// set, at the wired state of kidOps[first]; kidOps[first:end] (past
// that one) merge in after it.
type liveNode struct {
	init       LT
	first, end int32
	slot, blk  int32
	fromKid    bool
}

// kidOp is one child of a live position: the position kid, whose state
// sits in lane block blk, or, when blk < 0, a buffer-free child whose
// fixed wired state is c.
type kidOp struct {
	kid, blk int32
	c        LT
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

// NewEdge returns the wire of length l with parasitics wp.
func NewEdge(l float64, wp WireParams) Edge {
	return Edge{Len: l, RL: wp.R * l, Half: 0.5 * wp.R * wp.C * l * l, CL: wp.C * l}
}

// LT is a (downstream load, required time) pair: a position's state in
// the bottom-up walk.
type LT struct {
	L, T float64
}

// Compile compiles a tree, the set of buffered nodes and per-edge wire
// overrides into a Program. It is the legality check of a buffered
// design, written apart from EvaluateSized's: it rejects a buffered node outside the
// tree or off a legal buffer position, a wire override outside the tree,
// on the root, not positive or not finite, an internal node without
// children (a driver-only tree among them) and a node listed twice in
// buffered. Slots follow ascending node ID.
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
		if !(wp.R > 0 && wp.C > 0) || math.IsInf(wp.R, 1) || math.IsInf(wp.C, 1) {
			return nil, fmt.Errorf("rctree: wire override %+v at node %d not positive and finite", wp, id)
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
		p.Edge[i] = NewEdge(nd.WireLen, wp)
		p.Slot[i] = -1
	}
	p.KidStart[n] = int32(len(p.Kids))
	for k, id := range buffers {
		if i := pos[id]; i >= 0 { // a buffer off the root's subtree is never applied
			p.Slot[i] = int32(k)
		}
	}
	p.plan()
	return p, nil
}

// Len returns the number of positions (nodes reachable from the root).
func (p *Program) Len() int { return len(p.Node) }

// The steps of the walk, in EvaluateSized's expression order. Every
// evaluation of a position goes through them, so a fixed state folded
// once by plan and a lane's state in RootRATs get the same bits.

// wired pushes v up the edge.
func (e *Edge) wired(v LT) LT {
	v.T -= e.RL * v.L
	v.T -= e.Half
	v.L += e.CL
	return v
}

// merged folds child into the merged state cur of its earlier siblings.
func merged(cur, child LT) LT {
	cur.L += child.L
	if child.T < cur.T {
		cur.T = child.T
	}
	return cur
}

// buffered drives cur through the buffer b.
func buffered(cur LT, b *BufferValues) LT {
	return LT{L: b.C, T: cur.T - b.T - b.R*cur.L}
}

// plan splits the positions for RootRATs. A position with no buffer at
// or below it has the same state in every evaluation; plan folds it
// once. Every other position is live and gets a liveNode, whose leading
// buffer-free children are folded into its start state too. A live
// position's block is read only by its parent, so blocks are recycled
// once the parent is done: the walk holds about one block per tree
// level, not one per position.
func (p *Program) plan() {
	// blk is -1 at a buffer-free position; a first pass marks the live
	// ones 0 and sizes the plan.
	blk := make([]int32, p.Len())
	nlive, nops := 0, 0
	for i := range p.Node {
		kids := p.Kids[p.KidStart[i]:p.KidStart[i+1]]
		blk[i] = -1
		if p.Slot[i] >= 0 || slices.ContainsFunc(kids, func(k int32) bool { return blk[k] >= 0 }) {
			blk[i] = 0
			nlive++
			nops += len(kids)
		}
	}
	p.live = make([]liveNode, 0, nlive)
	p.kidOps = make([]kidOp, 0, nops)
	fixed := make([]LT, p.Len())
	var free []int32
	for i := range p.Node {
		kids := p.Kids[p.KidStart[i]:p.KidStart[i+1]]
		cur := p.Leaf[i]
		j := 0
		for ; j < len(kids) && blk[kids[j]] < 0; j++ {
			child := p.Edge[kids[j]].wired(fixed[kids[j]])
			if j == 0 {
				cur = child
			} else {
				cur = merged(cur, child)
			}
		}
		if blk[i] < 0 {
			fixed[i] = cur
			continue
		}
		nd := liveNode{init: cur, first: int32(len(p.kidOps)), slot: p.Slot[i], fromKid: j == 0 && len(kids) > 0}
		for _, k := range kids[j:] {
			op := kidOp{kid: k, blk: blk[k]}
			if op.blk < 0 {
				op.c = p.Edge[k].wired(fixed[k])
			}
			p.kidOps = append(p.kidOps, op)
		}
		nd.end = int32(len(p.kidOps))
		// Take the block before freeing the children's: it is written
		// while theirs are read.
		if len(free) > 0 {
			nd.blk, free = free[len(free)-1], free[:len(free)-1]
		} else {
			nd.blk = int32(p.blocks)
			p.blocks++
		}
		for _, op := range p.kidOps[nd.first:nd.end] {
			if op.blk >= 0 {
				free = append(free, op.blk)
			}
		}
		blk[i] = nd.blk
		p.live = append(p.live, nd)
	}
	root := fixed[p.Len()-1]
	p.fixedRAT = root.T - p.DriverR*root.L
}

// Scratch returns the scratch RootRATs needs for the given lane count:
// a load and a required-time block per lane block.
func (p *Program) Scratch(lanes int) []float64 {
	return make([]float64, 2*p.blocks*lanes)
}

// block returns the load and required-time lanes of block blk in vals,
// for n lanes.
func block(vals []float64, blk int32, n int) (l, t []float64) {
	o := 2 * int(blk) * n
	return vals[o : o+n], vals[o+n : o+2*n]
}

// RootRATs evaluates the compiled tree for len(out) independent sets of
// buffer values, the lanes, and stores in out[b] EvaluateSized's
// RootRAT for lane b, bit for bit. buffer(k) returns the values of the
// buffer in slot k, lane b's at index b; the walk calls it once for each
// slot it applies, in post order, and reads the result before the next
// call. Each step of the walk runs as a loop over the lanes, so lanes
// interleave but each one goes through its own operations in
// EvaluateSized's order. Buffer-free subtrees were folded once by
// Compile; only live positions are walked. vals is scratch from
// Scratch(len(out)) or longer; it is overwritten.
func (p *Program) RootRATs(buffer func(k int) []BufferValues, out []float64, vals []float64) {
	n := len(out)
	if len(p.live) == 0 {
		for b := range out {
			out[b] = p.fixedRAT
		}
		return
	}
	var lo, to []float64
	for li := range p.live {
		nd := &p.live[li]
		lo, to = block(vals, nd.blk, n)
		to = to[:len(lo)]
		ops := p.kidOps[nd.first:nd.end]
		if nd.fromKid {
			lk, tk := block(vals, ops[0].blk, n)
			lk, tk = lk[:len(lo)], tk[:len(lo)]
			e := &p.Edge[ops[0].kid]
			for b := range lo {
				c := e.wired(LT{L: lk[b], T: tk[b]})
				lo[b], to[b] = c.L, c.T
			}
			ops = ops[1:]
		} else {
			for b := range lo {
				lo[b], to[b] = nd.init.L, nd.init.T
			}
		}
		for i := range ops {
			op := &ops[i]
			if op.blk < 0 {
				for b := range lo {
					c := merged(LT{L: lo[b], T: to[b]}, op.c)
					lo[b], to[b] = c.L, c.T
				}
				continue
			}
			lk, tk := block(vals, op.blk, n)
			lk, tk = lk[:len(lo)], tk[:len(lo)]
			e := &p.Edge[op.kid]
			for b := range lo {
				c := merged(LT{L: lo[b], T: to[b]}, e.wired(LT{L: lk[b], T: tk[b]}))
				lo[b], to[b] = c.L, c.T
			}
		}
		if nd.slot >= 0 {
			bv := buffer(int(nd.slot))[:len(lo)]
			for b := range lo {
				c := buffered(LT{L: lo[b], T: to[b]}, &bv[b])
				lo[b], to[b] = c.L, c.T
			}
		}
	}
	lo, to = lo[:len(out)], to[:len(out)]
	for b := range out {
		out[b] = to[b] - p.DriverR*lo[b]
	}
}
