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

// Lanes is the number of consecutive samples a Sampler draws and
// evaluates at once, each in one lane of its blocks. Every step runs as
// a loop over the lanes: the lanes are independent samples, so the
// loop overlaps their dependency chains while each lane keeps its own
// operations in their order.
const Lanes = 16

// Sampler reads buffer realizations of a compiled design from the keyed
// stream of one seed, a block of up to Lanes consecutive samples at a
// time, with its own scratch. Sample i's values depend only on (seed,
// i), never on which Sampler drew them, in what block or in what order.
// Blocks are lane-major: the value of item j in lane b sits at
// [j*n+b] for a block of n samples. It is not safe for concurrent use.
type Sampler struct {
	d      *Design
	draws  *variation.Draws
	n      int       // the current block's lane count
	x      []float64 // x[j*n+b] is lane b's value of source d.sources[j]
	pv     []float64 // pv[i*n+b] is lane b's value of d.shared[i]
	bufs   [Lanes]rctree.BufferValues
	buffer func(k int) []rctree.BufferValues // s.Buffers, for the walk
	vals   []float64                         // the walk's scratch
}

// Sampler starts a reader of the stream seeded by seed.
func (d *Design) Sampler(seed int64) *Sampler {
	s := &Sampler{
		d:     d,
		draws: variation.NewDraws(seed),
		x:     make([]float64, len(d.sources)*Lanes),
		pv:    make([]float64, len(d.shared)*Lanes),
	}
	s.buffer = s.Buffers
	return s
}

// Block draws samples [i0, i0+n) of every source the design references
// and evaluates the shared deviation prefixes in them, lane b holding
// sample i0+b. n must be in [1, Lanes].
func (s *Sampler) Block(i0, n int) {
	s.n = n
	x := s.x[:len(s.d.sources)*n]
	for b := range n {
		s.draws.Seek(i0 + b)
		for j, id := range s.d.sources {
			x[j*n+b] = s.draws.Next(id) * s.d.sigma[j]
		}
	}
	s.prefixes()
}

// prefixes evaluates the shared prefixes of the block's source values.
func (s *Sampler) prefixes() {
	n := s.n
	pv := s.pv[:len(s.d.shared)*n]
	for i := range s.d.shared {
		f := &s.d.shared[i]
		dst := pv[i*n : (i+1)*n]
		for b := range dst {
			dst[b] = f.nominal
		}
		s.fold(dst, f.terms)
	}
}

// Buffers returns the values of the buffer in slot k in the current
// block, lane b's at index b. The slice is reused by the next call.
func (s *Sampler) Buffers(k int) []rctree.BufferValues {
	var dev [Lanes]float64
	d := dev[:s.n]
	s.deviation(k, d)
	sl := &s.d.slots[k]
	bufs := s.bufs[:len(d)]
	for b := range d {
		bufs[b] = sl.values(d[b])
	}
	return bufs
}

// deviation stores in d[b] lane b's deviation of slot k; len(d) is the
// block's lane count. Each lane's value is dev.Eval(src) bit for bit:
// Form.Eval is a left fold of v += c*x from the nominal, so a shared
// prefix's value is the fold's partial sum before the last term, and
// one more v += c*x finishes it. The lanes only interleave.
func (s *Sampler) deviation(k int, d []float64) {
	sl := &s.d.slots[k]
	if sl.pre < 0 {
		for b := range d {
			d[b] = sl.dev.Nominal
		}
	} else {
		copy(d, s.pv[int(sl.pre)*len(d):])
	}
	s.fold(d, sl.terms)
}

// fold adds c*x to every lane of dst for each term in order. Two terms
// share a pass over the lanes: each lane still adds them one after the
// other, and dst is loaded and stored once per pair.
func (s *Sampler) fold(dst []float64, terms []laneTerm) {
	n := len(dst)
	for ; len(terms) >= 2; terms = terms[2:] {
		t0, t1 := terms[0], terms[1]
		x0 := s.x[int(t0.src)*n:][:len(dst)]
		x1 := s.x[int(t1.src)*n:][:len(dst)]
		for b := range dst {
			v := dst[b]
			v += t0.coef * x0[b]
			v += t1.coef * x1[b]
			dst[b] = v
		}
	}
	for _, t := range terms {
		x := s.x[int(t.src)*n:][:len(dst)]
		for b := range dst {
			dst[b] += t.coef * x[b]
		}
	}
}

// rootRATs stores the root RAT of lane b of the current block in
// out[b]; len(out) is the block's lane count.
func (s *Sampler) rootRATs(out []float64) {
	if s.vals == nil {
		s.vals = s.d.Tree.Scratch(Lanes)
	}
	s.d.Tree.RootRATs(s.buffer, out, s.vals)
}

// sample fills dst[sh.From:sh.End()] with the root RATs of those samples
// of the stream seeded seed, split over len(samplers) workers. Part k
// draws through samplers[k], built on first use and kept for the next
// range, so a run builds one Sampler per worker. Each part runs in
// blocks of Lanes samples from its first, the last one shorter. A range
// splits into at most as many parts as it has samples, so callers size
// samplers by min(workers, samples) and a huge worker count allocates
// nothing.
func (d *Design) sample(dst []float64, seed int64, sh stats.Shard, samplers []*Sampler) {
	stats.RunShards(sh, len(samplers), func(k int, part stats.Shard) {
		if samplers[k] == nil {
			samplers[k] = d.Sampler(seed)
		}
		s := samplers[k]
		for i := part.From; i < part.End(); i += Lanes {
			n := min(Lanes, part.End()-i)
			s.Block(i, n)
			s.rootRATs(dst[i : i+n])
		}
	})
}
