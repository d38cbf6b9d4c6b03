package skew

import (
	"fmt"
	"slices"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
	"vabuf/internal/yield"
)

func sortSlice(list []*cand, less func(a, b *cand) bool) {
	slices.SortFunc(list, func(a, b *cand) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	})
}

// Propagate evaluates a fixed buffered clock tree: it returns the
// canonical forms of the skew (Dmax − Dmin) and the insertion latency
// (Dmax) at the root, independently of the optimizer.
func Propagate(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	model *variation.Model) (skewForm, latency variation.Form, err error) {
	if err := tree.Validate(); err != nil {
		return variation.Form{}, variation.Form{}, err
	}
	space := variation.NewSpace()
	if model != nil {
		space = model.Space
	}
	for id, bi := range assign {
		if id < 0 || int(id) >= tree.Len() || !tree.Node(id).BufferOK {
			return variation.Form{}, variation.Form{}, fmt.Errorf("skew: bad assignment node %d", id)
		}
		if bi < 0 || bi >= len(lib) {
			return variation.Form{}, variation.Form{}, fmt.Errorf("skew: buffer index %d out of range", bi)
		}
	}
	type state struct{ L, dmax, dmin variation.Form }
	vals := make([]state, tree.Len())
	r := tree.Wire.R
	c := tree.Wire.C
	for _, id := range tree.PostOrder() {
		n := tree.Node(id)
		var cur state
		switch n.Kind {
		case rctree.KindSink:
			cur = state{
				L:    variation.Const(n.CapLoad),
				dmax: variation.Const(0),
				dmin: variation.Const(0),
			}
		default:
			first := true
			for _, cid := range n.Children {
				cn := tree.Node(cid)
				child := vals[cid]
				if l := cn.WireLen; l > 0 {
					half := 0.5 * r * c * l * l
					child.dmax = child.dmax.AXPY(r*l, child.L).Shift(half)
					child.dmin = child.dmin.AXPY(r*l, child.L).Shift(half)
					child.L = child.L.Shift(c * l)
				}
				if first {
					cur = child
					first = false
				} else {
					cur.L = cur.L.Add(child.L)
					cur.dmax = variation.Max(cur.dmax, child.dmax, space).Form
					cur.dmin = variation.Min(cur.dmin, child.dmin, space).Form
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
			d := variation.Const(b.Tb0).Add(dev.Scale(b.Tb0)).AXPY(b.Rb, cur.L)
			cur = state{
				L:    cbForm,
				dmax: cur.dmax.Add(d),
				dmin: cur.dmin.Add(d),
			}
		}
		vals[id] = cur
	}
	root := vals[tree.Root]
	return root.dmax.Sub(root.dmin), root.dmax, nil
}

// MonteCarlo samples the model and computes the exact per-sample skew
// (max minus min source-to-sink Elmore delay) of the buffered tree. The
// tree and assignment are validated and compiled once, through the same
// step as the yield Monte Carlo, and sample i reads the same keyed draws
// as the yield samplers' sample i for the same seed.
func MonteCarlo(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	model *variation.Model, n int, seed int64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("skew: sample count %d must be positive", n)
	}
	prog, err := yield.CompileMC(tree, lib, assign, nil, model)
	if err != nil {
		return nil, fmt.Errorf("skew: %w", err)
	}
	s := prog.Sampler(seed)
	vals := make([]dstate, prog.Tree.Len())
	out := make([]float64, n)
	for i := range out {
		out[i] = sampleSkew(prog.Tree, s.Sample(i), vals)
	}
	return out, nil
}

// dstate is a position's (downstream load, max delay, min delay) in the
// bottom-up skew walk.
type dstate struct{ L, dmax, dmin float64 }

// sampleSkew walks a compiled tree once for one realization of the
// buffers and returns its skew. vals is scratch of length p.Len().
func sampleSkew(p *rctree.Program, bufs []rctree.BufferValues, vals []dstate) float64 {
	for i := range p.Node {
		cur := dstate{L: p.Leaf[i].L}
		ks, ke := p.KidStart[i], p.KidStart[i+1]
		for j := ks; j < ke; j++ {
			k := p.Kids[j]
			e := &p.Edge[k]
			child := vals[k]
			if e.Len > 0 {
				d := e.RL*child.L + e.Half
				child.dmax += d
				child.dmin += d
				child.L += e.CL
			}
			if j == ks {
				cur = child
			} else {
				cur.L += child.L
				if child.dmax > cur.dmax {
					cur.dmax = child.dmax
				}
				if child.dmin < cur.dmin {
					cur.dmin = child.dmin
				}
			}
		}
		if s := p.Slot[i]; s >= 0 {
			v := &bufs[s]
			d := v.T + v.R*cur.L
			cur = dstate{L: v.C, dmax: cur.dmax + d, dmin: cur.dmin + d}
		}
		vals[i] = cur
	}
	root := vals[len(p.Node)-1]
	return root.dmax - root.dmin
}
