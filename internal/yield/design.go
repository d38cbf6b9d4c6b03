package yield

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// Design is a fixed buffered design compiled once: the flat post-order
// walk of rctree.Program plus, per buffer slot, the library cell's
// nominal values and the site's resolved deviation form. It is the one
// input of every evaluator of a fixed design: the canonical walks read
// it through Walk (Propagate, PropagateSized, Criticality and the skew
// package's Propagate) and the Monte-Carlo samplers through Sampler.
// Compiling resolves every deviation serially, so the model is read-only
// afterwards and workers may share one design, each drawing through its
// own Sampler.
type Design struct {
	// Tree is the compiled topology; Tree.Buffers[k] carries slot k.
	Tree *rctree.Program
	// Space is the model's source space, or an empty one for a nil
	// model.
	Space *variation.Space
	slots []slot
	// shared holds the deviation prefixes two or more slots share: a
	// form's nominal and all of its terms but the last. Each is
	// evaluated once per sample.
	shared []laneForm
	// sources lists, ascending, the IDs of the sources the slots'
	// deviations reference, and sigma their standard deviations: the
	// only sources a sample draws. A laneTerm names a source by its
	// position here.
	sources []variation.SourceID
	sigma   []float64
}

// slot is one placed buffer: cell values and the site deviation D, so
// a sample realizes C = Cb0·(1+D), T = Tb0·(1+D), R = Rb.
type slot struct {
	cb0, tb0, rb float64
	dev          variation.Form
	// pre indexes the slot's prefix in Design.shared, or is -1 when no
	// other slot shares it. A sample's D starts at the prefix's value,
	// or at dev's nominal when pre is -1, and folds in terms: dev's last
	// term, or all of them.
	pre   int32
	terms []laneTerm
}

// values returns the buffer values the slot realizes at deviation d.
func (sl *slot) values(d float64) rctree.BufferValues {
	return rctree.BufferValues{C: sl.cb0 * (1 + d), T: sl.tb0 * (1 + d), R: sl.rb}
}

// laneForm is a form whose terms name sources by their position in
// Design.sources, the layout of a Sampler's block.
type laneForm struct {
	nominal float64
	terms   []laneTerm
}

type laneTerm struct {
	src  int32
	coef float64
}

// Compile validates a buffered tree once and compiles it. It is the
// legality check of every evaluator of a fixed design: Tree.Validate,
// the library index of every buffer, then rctree.Compile (a buffer
// outside the tree or off a legal position, a bad wire override, an
// internal node without children — a driver-only tree among them).
// Sites resolve in post order, as the optimizer resolves them, so a
// fresh model numbers its per-site sources the same way. A nil model
// gives zero deviations and an empty source space.
func Compile(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	wires rctree.WireAssignment, model *variation.Model) (*Design, error) {
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	ids := make([]rctree.NodeID, 0, len(assign))
	for id, bi := range assign {
		if bi < 0 || bi >= len(lib) {
			return nil, fmt.Errorf("yield: buffer index %d out of library range", bi)
		}
		ids = append(ids, id)
	}
	prog, err := rctree.Compile(tree, ids, wires)
	if err != nil {
		return nil, err
	}
	d := &Design{Tree: prog, Space: variation.NewSpace(), slots: make([]slot, len(prog.Buffers))}
	if model != nil {
		d.Space = model.Space
	}
	for i, id := range prog.Node {
		if k := prog.Slot[i]; k >= 0 {
			b := lib[assign[id]]
			d.slots[k] = slot{cb0: b.Cb0, tb0: b.Tb0, rb: b.Rb}
			if model != nil {
				d.slots[k].dev = model.Deviation(int(id), tree.Node(id).Loc)
			}
		}
	}
	d.index()
	return d, nil
}

// CompileMC is Compile for the Monte-Carlo samplers, which need a
// model to draw from: it rejects a nil one.
func CompileMC(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	wires rctree.WireAssignment, model *variation.Model) (*Design, error) {
	if model == nil {
		return nil, fmt.Errorf("yield: MonteCarlo requires a variation model")
	}
	return Compile(tree, lib, assign, wires, model)
}

// FormOps are the key operations of §4.2 on the state S of a canonical
// walk.
type FormOps[S any] struct {
	// Sink is the state of a sink with (load, RAT) v.
	Sink func(v rctree.LT) S
	// Wire pushes a state up an edge of positive length.
	Wire func(s S, e *rctree.Edge) S
	// Merge folds a child into the merged state of its earlier siblings;
	// kids are the positions merged so far, the new child last.
	Merge func(acc, child S, kids []int32) S
	// Buffer applies a buffer of canonical input capacitance c and
	// intrinsic delay t and of output resistance r over a merged
	// subtree.
	Buffer func(s S, c, t variation.Form, r float64) S
}

// Walk pushes states bottom-up through the design in post order and
// returns the root's, before the driver. The slot forms Buffer receives
// take their terms from a, or from the heap when a is nil; arena-backed
// forms are valid until a is released.
func Walk[S any](d *Design, a *variation.Arena, ops FormOps[S]) S {
	p := d.Tree
	// Only the parent reads a position's state, and in post order the
	// parent comes right after its children's subtrees, so the states
	// waiting for their parent form a stack whose top entries are the
	// current position's children, in order. It holds about one state
	// per branching level, not one per position.
	var buf [64]S
	stack := buf[:0]
	for i := range p.Node {
		var cur S
		ks, ke := p.KidStart[i], p.KidStart[i+1]
		if ks == ke {
			cur = ops.Sink(p.Leaf[i])
		}
		base := len(stack) - int(ke-ks)
		for j := ks; j < ke; j++ {
			child := stack[base+int(j-ks)]
			if e := &p.Edge[p.Kids[j]]; e.Len > 0 {
				child = ops.Wire(child, e)
			}
			if j == ks {
				cur = child
			} else {
				cur = ops.Merge(cur, child, p.Kids[ks:j+1])
			}
		}
		stack = stack[:base]
		if s := p.Slot[i]; s >= 0 {
			sl := &d.slots[s]
			cb := variation.Const(sl.cb0).AddIn(a, sl.dev.ScaleIn(a, sl.cb0))
			tb := variation.Const(sl.tb0).AddIn(a, sl.dev.ScaleIn(a, sl.tb0))
			cur = ops.Buffer(cur, cb, tb, sl.rb)
		}
		stack = append(stack, cur)
	}
	return stack[0]
}

// lt is a canonical (downstream load, required time) walk state.
type lt struct{ L, T variation.Form }

// rootRAT walks the design with the (L, T) operations of §4.2 and
// returns the root RAT form including the driver delay. tight, when
// non-nil, observes every merge: kids as in FormOps.Merge and t the
// probability that the earlier kids realize the minimum. The walk's
// forms live on one arena, released on return; only the root form is
// copied out.
func (d *Design) rootRAT(tight func(kids []int32, t float64)) variation.Form {
	a := variation.NewArena()
	defer a.Release()
	root := Walk(d, a, FormOps[lt]{
		Sink: func(v rctree.LT) lt { return lt{L: variation.Const(v.L), T: variation.Const(v.T)} },
		Wire: func(s lt, e *rctree.Edge) lt {
			return lt{L: s.L.Shift(e.CL), T: s.T.AXPYIn(a, -e.RL, s.L).Shift(-e.Half)}
		},
		Merge: func(acc, child lt, kids []int32) lt {
			res := variation.MinIn(a, acc.T, child.T, d.Space)
			if tight != nil {
				tight(kids, res.Moments.Tightness)
			}
			return lt{L: acc.L.AddIn(a, child.L), T: res.Form}
		},
		Buffer: func(s lt, c, t variation.Form, r float64) lt {
			return lt{L: c, T: s.T.SubIn(a, t).AXPYIn(a, -r, s.L)}
		},
	})
	return root.T.AXPYIn(a, -d.Tree.DriverR, root.L).Clone()
}

// index records, ascending, the IDs of the sources the slots' forms
// name, with their sigmas, finds the shared prefixes and rewrites the
// prefixes and the slots' folds over source positions.
func (d *Design) index() {
	prefixes := sharePrefixes(d.slots)
	d.sources, d.sigma = nil, nil
	pos := make([]int32, d.Space.Len())
	for _, sl := range d.slots {
		for _, t := range sl.dev.Terms {
			pos[t.ID] = 1 // referenced; numbered below
		}
	}
	for id, used := range pos {
		if used != 0 {
			pos[id] = int32(len(d.sources))
			d.sources = append(d.sources, variation.SourceID(id))
			d.sigma = append(d.sigma, d.Space.Sigma(variation.SourceID(id)))
		}
	}
	// A slot folds its last term after its shared prefix, or all of
	// its terms; every fold is a piece of one backing array.
	fold := func(sl *slot) []variation.Term {
		if sl.pre >= 0 {
			return sl.dev.Terms[len(sl.dev.Terms)-1:]
		}
		return sl.dev.Terms
	}
	total := 0
	for _, f := range prefixes {
		total += len(f.Terms)
	}
	for k := range d.slots {
		total += len(fold(&d.slots[k]))
	}
	all := make([]laneTerm, 0, total)
	lane := func(terms []variation.Term) []laneTerm {
		from := len(all)
		for _, t := range terms {
			all = append(all, laneTerm{src: pos[t.ID], coef: t.Coef})
		}
		return all[from:len(all):len(all)]
	}
	d.shared = make([]laneForm, len(prefixes))
	for i, f := range prefixes {
		d.shared[i] = laneForm{nominal: f.Nominal, terms: lane(f.Terms)}
	}
	for k := range d.slots {
		d.slots[k].terms = lane(fold(&d.slots[k]))
	}
}

// comparePrefix orders the prefixes of two forms by term count, nominal
// bits, then term by term on ID and coefficient bits. It returns 0 only
// for prefixes that are equal bit for bit, which therefore evaluate to
// the same partial sum of Form.Eval on any sample.
func comparePrefix(f, g variation.Form) int {
	if c := cmp.Compare(len(f.Terms), len(g.Terms)); c != 0 {
		return c
	}
	if c := cmp.Compare(math.Float64bits(f.Nominal), math.Float64bits(g.Nominal)); c != 0 {
		return c
	}
	for i := range f.Terms[:max(len(f.Terms)-1, 0)] {
		a, b := f.Terms[i], g.Terms[i]
		if c := cmp.Compare(a.ID, b.ID); c != 0 {
			return c
		}
		if c := cmp.Compare(math.Float64bits(a.Coef), math.Float64bits(b.Coef)); c != 0 {
			return c
		}
	}
	return 0
}

// sharePrefixes finds the deviation prefixes that two or more slots share
// exactly, points each such slot's pre at its prefix and returns the
// prefixes; every other slot gets pre = -1. Sorting by comparePrefix
// puts equal prefixes next to each other. A form with no terms has no
// prefix.
func sharePrefixes(slots []slot) []variation.Form {
	order := make([]int32, 0, len(slots))
	for k := range slots {
		slots[k].pre = -1
		if len(slots[k].dev.Terms) > 0 {
			order = append(order, int32(k))
		}
	}
	byPrefix := func(a, b int32) int { return comparePrefix(slots[a].dev, slots[b].dev) }
	slices.SortFunc(order, byPrefix)
	var shared []variation.Form
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && byPrefix(order[i], order[j]) == 0 {
			j++
		}
		if j-i > 1 {
			f := slots[order[i]].dev
			for _, k := range order[i:j] {
				slots[k].pre = int32(len(shared))
			}
			shared = append(shared, variation.Form{Nominal: f.Nominal, Terms: f.Terms[:len(f.Terms)-1]})
		}
		i = j
	}
	return shared
}
