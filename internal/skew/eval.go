package skew

import (
	"fmt"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
	"vabuf/internal/yield"
)

// Propagate evaluates a fixed buffered clock tree: it returns the
// canonical forms of the skew (Dmax − Dmin) and the insertion latency
// (Dmax) at the root, independently of the optimizer's search. It walks
// the design yield.Compile validated and compiled with the optimizer's
// (L, Dmax, Dmin) operations.
func Propagate(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	model *variation.Model) (skewForm, latency variation.Form, err error) {
	d, err := yield.Compile(tree, lib, assign, nil, model)
	if err != nil {
		return variation.Form{}, variation.Form{}, fmt.Errorf("skew: %w", err)
	}
	root := yield.Walk(d, nil, yield.FormOps[state]{
		Sink:   func(v rctree.LT) state { return state{L: variation.Const(v.L)} },
		Wire:   state.wired,
		Merge:  func(acc, child state, _ []int32) state { return acc.merged(child, d.Space) },
		Buffer: state.buffered,
	})
	return root.dmax.Sub(root.dmin), root.dmax, nil
}

// MonteCarlo samples the model and computes the exact per-sample skew
// (max minus min source-to-sink Elmore delay) of the buffered tree. The
// tree and assignment are validated and compiled once, through the same
// step as the yield Monte Carlo, and sample i reads the same keyed draws
// and deviations as the yield samplers' sample i for the same seed: the
// blocks of one yield.Sampler, each lane's buffer values materialized
// for the per-sample skew walk.
func MonteCarlo(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	model *variation.Model, n int, seed int64) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("skew: sample count %d must be positive", n)
	}
	d, err := yield.CompileMC(tree, lib, assign, nil, model)
	if err != nil {
		return nil, fmt.Errorf("skew: %w", err)
	}
	s := d.Sampler(seed)
	vals := make([]dstate, d.Tree.Len())
	var lanes [yield.Lanes][]rctree.BufferValues
	for b := range lanes {
		lanes[b] = make([]rctree.BufferValues, len(d.Tree.Buffers))
	}
	out := make([]float64, n)
	for i := 0; i < n; i += yield.Lanes {
		m := min(yield.Lanes, n-i)
		s.Block(i, m)
		for k := range d.Tree.Buffers {
			for b, v := range s.Buffers(k) {
				lanes[b][k] = v
			}
		}
		for b := range m {
			out[i+b] = sampleSkew(d.Tree, lanes[b], vals)
		}
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
