package yield

import (
	"fmt"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// MonteCarloParallel draws n realizations of the model's sources and
// evaluates the buffered tree's root RAT with deterministic Elmore per
// sample — the ground-truth distribution the canonical model
// approximates (Figure 6) — with per-edge wire overrides and the
// samples split over worker goroutines (<= 0 selects GOMAXPROCS).
// Sample i depends only on (seed, i), so the result is the same for
// every worker count. The model must be non-nil.
func MonteCarloParallel(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	wires rctree.WireAssignment, model *variation.Model, n int, seed int64, workers int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("yield: sample count %d must be positive", n)
	}
	d, err := CompileMC(tree, lib, assign, wires, model)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	d.sample(out, seed, stats.Shard{Count: n}, make([]*Sampler, min(stats.Workers(workers), n)))
	return out, nil
}

// Sampler reads buffer realizations of a compiled design from the keyed
// stream of one seed, with its own scratch. Sample i's values depend
// only on (seed, i), never on which Sampler drew them or in what order.
// It is not safe for concurrent use.
type Sampler struct {
	d     *Design
	draws *variation.Draws
	src   []float64 // src[id] is the current sample's value of source id
	pv    []float64 // pv[i] is the value of d.shared[i] on src
	bufs  []rctree.BufferValues
	vals  []rctree.LT // RootRAT scratch
}

// Sampler starts a reader of the stream seeded by seed.
func (d *Design) Sampler(seed int64) *Sampler {
	n := 0
	if len(d.sources) > 0 {
		n = int(d.sources[len(d.sources)-1]) + 1
	}
	return &Sampler{
		d:     d,
		draws: variation.NewDraws(seed),
		src:   make([]float64, n),
		pv:    make([]float64, len(d.shared)),
		bufs:  make([]rctree.BufferValues, len(d.slots)),
		vals:  make([]rctree.LT, d.Tree.Len()),
	}
}

// Sample draws sample i of every source the design references and
// returns the buffer values it implies, indexed by slot. The slice is
// reused by the next call.
func (s *Sampler) Sample(i int) []rctree.BufferValues {
	s.draws.Seek(i)
	for k, id := range s.d.sources {
		s.src[id] = s.draws.Next(id) * s.d.sigma[k]
	}
	return s.realize()
}

// realize evaluates the buffer values of the source values in s.src.
func (s *Sampler) realize() []rctree.BufferValues {
	src, pv := s.src, s.pv
	for i, f := range s.d.shared {
		pv[i] = f.Eval(src)
	}
	for k := range s.d.slots {
		sl := &s.d.slots[k]
		d := sl.deviation(src, pv)
		s.bufs[k] = rctree.BufferValues{C: sl.cb0 * (1 + d), T: sl.tb0 * (1 + d), R: sl.rb}
	}
	return s.bufs
}

// deviation returns dev.Eval(src) bit for bit, given pv[i] =
// shared[i].Eval(src). Form.Eval is a left fold of v += c*x from the
// nominal, so a shared prefix's value is the fold's partial sum before
// the last term, and one more v + c*x of the same shape finishes it.
func (sl *slot) deviation(src, pv []float64) float64 {
	if sl.pre < 0 {
		return sl.dev.Eval(src)
	}
	t := sl.dev.Terms[len(sl.dev.Terms)-1]
	return pv[sl.pre] + t.Coef*src[t.ID]
}

// sample fills dst[sh.From:sh.End()] with the root RATs of those samples
// of the stream seeded seed, split over len(samplers) workers. Part k
// draws through samplers[k], built on first use and kept for the next
// range, so a run builds one Sampler per worker. A range splits into at
// most as many parts as it has samples, so callers size samplers by
// min(workers, samples) and a huge worker count allocates nothing.
func (d *Design) sample(dst []float64, seed int64, sh stats.Shard, samplers []*Sampler) {
	stats.RunShards(sh, len(samplers), func(k int, part stats.Shard) {
		if samplers[k] == nil {
			samplers[k] = d.Sampler(seed)
		}
		s := samplers[k]
		for i := part.From; i < part.End(); i++ {
			dst[i] = d.Tree.RootRAT(s.Sample(i), s.vals)
		}
	})
}
