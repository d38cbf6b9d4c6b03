// Package rctree provides the distributed RC routing-tree substrate the
// buffer inserter operates on: tree topology with sinks, Steiner points and
// a driver, per-edge wire lengths with π-model parasitics, legal buffer
// positions, Elmore-delay evaluation of a buffered tree, and a plain-text
// interchange format.
//
// Units follow the repo convention: µm, fF, kΩ, ps (1 kΩ·fF = 1 ps).
package rctree

import (
	"fmt"
	"math"

	"vabuf/internal/geom"
)

// NodeID indexes a node within its Tree. IDs are dense, assigned in
// creation order.
type NodeID int32

// NoNode is the nil NodeID (e.g. the root's parent).
const NoNode NodeID = -1

// Kind distinguishes the three node roles.
type Kind uint8

// Node kinds.
const (
	// KindDriver is the net's source; exactly one per tree, always the root.
	KindDriver Kind = iota
	// KindSink is a leaf with a capacitive load and a required arrival time.
	KindSink
	// KindSteiner is an internal branching or wiring point.
	KindSteiner
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDriver:
		return "driver"
	case KindSink:
		return "sink"
	case KindSteiner:
		return "steiner"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// WireParams holds per-unit-length interconnect parasitics.
type WireParams struct {
	// R is wire sheet resistance per unit length, kΩ/µm.
	R float64
	// C is wire capacitance per unit length, fF/µm.
	C float64
}

// DefaultWire is a 65 nm-flavoured global wire: 0.1 Ω/µm and 0.2 fF/µm.
var DefaultWire = WireParams{R: 1e-4, C: 0.2}

// Node is one vertex of the routing tree.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	Loc  geom.Point
	// Parent is NoNode for the root. WireLen is the routed length of the
	// edge from this node up to Parent, in µm (0 for the root).
	Parent  NodeID
	WireLen float64
	// Children lists direct downstream nodes in insertion order.
	Children []NodeID
	// CapLoad (fF) and RAT (ps) are meaningful for sinks only.
	CapLoad float64
	RAT     float64
	// BufferOK marks a legal buffer position. The root driver is never a
	// legal position.
	BufferOK bool
}

// Tree is a rooted RC routing tree.
type Tree struct {
	Nodes []Node
	Root  NodeID
	Wire  WireParams
	// DriverR is the output resistance of the root driver, kΩ. The final
	// RAT at the driver includes the driver delay DriverR·L_root.
	DriverR float64
}

// New creates a tree containing only a driver node at loc.
func New(wire WireParams, driverR float64, loc geom.Point) *Tree {
	t := &Tree{Wire: wire, DriverR: driverR, Root: 0}
	t.Nodes = append(t.Nodes, Node{
		ID:     0,
		Kind:   KindDriver,
		Name:   "drv",
		Loc:    loc,
		Parent: NoNode,
	})
	return t
}

// AddSteiner appends an internal node under parent, connected by a wire of
// the given length, and returns its ID. Steiner nodes are legal buffer
// positions.
func (t *Tree) AddSteiner(parent NodeID, loc geom.Point, wireLen float64) NodeID {
	return t.add(Node{
		Kind:     KindSteiner,
		Loc:      loc,
		Parent:   parent,
		WireLen:  wireLen,
		BufferOK: true,
	})
}

// AddSink appends a sink under parent and returns its ID. Sinks are legal
// buffer positions (a buffer may be placed directly at a sink's input).
func (t *Tree) AddSink(parent NodeID, loc geom.Point, wireLen, capLoad, rat float64) NodeID {
	return t.add(Node{
		Kind:     KindSink,
		Loc:      loc,
		Parent:   parent,
		WireLen:  wireLen,
		CapLoad:  capLoad,
		RAT:      rat,
		BufferOK: true,
	})
}

func (t *Tree) add(n Node) NodeID {
	n.ID = NodeID(len(t.Nodes))
	if n.Name == "" {
		n.Name = fmt.Sprintf("n%d", n.ID)
	}
	t.Nodes = append(t.Nodes, n)
	t.Nodes[n.Parent].Children = append(t.Nodes[n.Parent].Children, n.ID)
	return n.ID
}

// Node returns a pointer to the node with the given ID.
func (t *Tree) Node(id NodeID) *Node { return &t.Nodes[id] }

// Len returns the number of nodes including the driver.
func (t *Tree) Len() int { return len(t.Nodes) }

// NumSinks counts sink nodes.
func (t *Tree) NumSinks() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Kind == KindSink {
			n++
		}
	}
	return n
}

// NumBufferPositions counts legal buffer positions.
func (t *Tree) NumBufferPositions() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].BufferOK {
			n++
		}
	}
	return n
}

// Sinks returns the IDs of all sink nodes in ID order.
func (t *Tree) Sinks() []NodeID {
	var out []NodeID
	for i := range t.Nodes {
		if t.Nodes[i].Kind == KindSink {
			out = append(out, t.Nodes[i].ID)
		}
	}
	return out
}

// TotalWireLength sums every edge length, in µm.
func (t *Tree) TotalWireLength() float64 {
	s := 0.0
	for i := range t.Nodes {
		s += t.Nodes[i].WireLen
	}
	return s
}

// PostOrder returns all node IDs so every node appears after all of its
// children (the reverse-topological traversal order of the DP).
func (t *Tree) PostOrder() []NodeID {
	out := make([]NodeID, 0, len(t.Nodes))
	type frame struct {
		id    NodeID
		child int
	}
	stack := []frame{{t.Root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := t.Nodes[f.id].Children
		if f.child < len(kids) {
			next := kids[f.child]
			f.child++
			stack = append(stack, frame{next, 0})
			continue
		}
		out = append(out, f.id)
		stack = stack[:len(stack)-1]
	}
	return out
}

// nonNegFinite reports whether x is in [0, +Inf): false for NaN.
func nonNegFinite(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Validate checks structural invariants: a single driver root, consistent
// parent/child links, sinks as leaves, non-negative wire lengths, full
// reachability, and sane electrical values. It returns the first problem
// found.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("rctree: empty tree")
	}
	if t.Root < 0 || int(t.Root) >= len(t.Nodes) {
		return fmt.Errorf("rctree: root %d out of range", t.Root)
	}
	root := t.Nodes[t.Root]
	if root.Kind != KindDriver {
		return fmt.Errorf("rctree: root %d is %v, want driver", t.Root, root.Kind)
	}
	if root.Parent != NoNode {
		return fmt.Errorf("rctree: root has parent %d", root.Parent)
	}
	if root.BufferOK {
		return fmt.Errorf("rctree: root driver marked as buffer position")
	}
	// Every range check below is written as !(finite and in range), so a
	// NaN, which fails every comparison, is rejected with the infinities.
	if !(t.Wire.R > 0 && t.Wire.C > 0) || math.IsInf(t.Wire.R, 1) || math.IsInf(t.Wire.C, 1) {
		return fmt.Errorf("rctree: wire parasitics %+v not positive and finite", t.Wire)
	}
	if !nonNegFinite(t.DriverR) {
		return fmt.Errorf("rctree: driver resistance %g not non-negative and finite", t.DriverR)
	}
	drivers := 0
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("rctree: node at index %d has ID %d", i, n.ID)
		}
		switch n.Kind {
		case KindDriver:
			drivers++
		case KindSink:
			if len(n.Children) != 0 {
				return fmt.Errorf("rctree: sink %d has %d children", n.ID, len(n.Children))
			}
			if !nonNegFinite(n.CapLoad) {
				return fmt.Errorf("rctree: sink %d has load %g, want non-negative and finite", n.ID, n.CapLoad)
			}
			if math.IsNaN(n.RAT) {
				return fmt.Errorf("rctree: sink %d has a NaN RAT", n.ID)
			}
		case KindSteiner:
			if len(n.Children) == 0 {
				return fmt.Errorf("rctree: steiner %d is a leaf", n.ID)
			}
		default:
			return fmt.Errorf("rctree: node %d has unknown kind %d", n.ID, n.Kind)
		}
		if n.ID != t.Root {
			if n.Parent < 0 || int(n.Parent) >= len(t.Nodes) {
				return fmt.Errorf("rctree: node %d parent %d out of range", n.ID, n.Parent)
			}
			if !nonNegFinite(n.WireLen) {
				return fmt.Errorf("rctree: node %d has wire length %g, want non-negative and finite", n.ID, n.WireLen)
			}
			found := false
			for _, c := range t.Nodes[n.Parent].Children {
				if c == n.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("rctree: node %d missing from parent %d child list", n.ID, n.Parent)
			}
		}
	}
	if drivers != 1 {
		return fmt.Errorf("rctree: %d driver nodes, want exactly 1", drivers)
	}
	if got := len(t.PostOrder()); got != len(t.Nodes) {
		return fmt.Errorf("rctree: %d of %d nodes reachable from root", got, len(t.Nodes))
	}
	return nil
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	out := &Tree{
		Nodes:   make([]Node, len(t.Nodes)),
		Root:    t.Root,
		Wire:    t.Wire,
		DriverR: t.DriverR,
	}
	copy(out.Nodes, t.Nodes)
	for i := range out.Nodes {
		if ch := t.Nodes[i].Children; ch != nil {
			out.Nodes[i].Children = append([]NodeID(nil), ch...)
		}
	}
	return out
}

// BoundingBox returns the bounding box of all node locations.
func (t *Tree) BoundingBox() geom.Rect {
	pts := make([]geom.Point, len(t.Nodes))
	for i := range t.Nodes {
		pts[i] = t.Nodes[i].Loc
	}
	return geom.BoundingBox(pts)
}
