package yield

import (
	"fmt"
	"math/rand"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// MCProgram is a buffered tree compiled once per Monte-Carlo run: the
// flat post-order walk of rctree.Program plus, per buffer slot, the
// library cell's nominal values and the site's resolved deviation form.
// Compiling resolves every deviation serially, so the model is read-only
// afterwards and shards may share one program, each drawing through its
// own Sampler.
type MCProgram struct {
	// Tree is the compiled topology; Tree.Buffers[k] carries slot k.
	Tree  *rctree.Program
	space *variation.Space
	slots []mcSlot
}

// mcSlot is one placed buffer: cell values and the site deviation D, so
// a sample realizes C = Cb0·(1+D), T = Tb0·(1+D), R = Rb.
type mcSlot struct {
	cb0, tb0, rb float64
	dev          variation.Form
}

// CompileMC validates a buffered tree under a model once and compiles it
// for sampling. It rejects an invalid tree, a buffer off a legal
// position or outside the tree, a library index out of range and a bad
// wire override. The model must be non-nil.
func CompileMC(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	wires rctree.WireAssignment, model *variation.Model) (*MCProgram, error) {
	if model == nil {
		return nil, fmt.Errorf("yield: MonteCarlo requires a variation model")
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	ids := make([]rctree.NodeID, 0, len(assign))
	for id := range assign {
		ids = append(ids, id)
	}
	prog, err := rctree.Compile(tree, ids, wires)
	if err != nil {
		return nil, err
	}
	slots := make([]mcSlot, len(prog.Buffers))
	for k, id := range prog.Buffers {
		bi := assign[id]
		if bi < 0 || bi >= len(lib) {
			return nil, fmt.Errorf("yield: buffer index %d out of library range", bi)
		}
		b := lib[bi]
		slots[k] = mcSlot{cb0: b.Cb0, tb0: b.Tb0, rb: b.Rb, dev: model.Deviation(int(id), tree.Node(id).Loc)}
	}
	return &MCProgram{Tree: prog, space: model.Space, slots: slots}, nil
}

// Sampler is one RNG stream of buffer realizations drawn from a compiled
// program, with its own scratch. It is not safe for concurrent use.
type Sampler struct {
	p    *MCProgram
	rng  *rand.Rand
	src  []float64
	bufs []rctree.BufferValues
}

// Sampler starts the stream seeded by seed.
func (p *MCProgram) Sampler(seed int64) *Sampler {
	return &Sampler{
		p:    p,
		rng:  rand.New(rand.NewSource(seed)),
		bufs: make([]rctree.BufferValues, len(p.slots)),
	}
}

// Next draws one realization of every variation source and returns the
// buffer values it implies, indexed by slot. The slice is reused by the
// next call.
func (s *Sampler) Next() []rctree.BufferValues {
	s.src = s.p.space.Sample(s.rng, s.src)
	for k := range s.p.slots {
		sl := &s.p.slots[k]
		d := sl.dev.Eval(s.src)
		s.bufs[k] = rctree.BufferValues{C: sl.cb0 * (1 + d), T: sl.tb0 * (1 + d), R: sl.rb}
	}
	return s.bufs
}

// sample fills dst[sh.From:sh.End()] with root RATs of consecutive draws
// from the stream seeded sh.Seed. Distinct shards may fill one dst
// concurrently.
func (p *MCProgram) sample(dst []float64, sh stats.Shard) {
	s := p.Sampler(sh.Seed)
	vals := make([]rctree.LT, p.Tree.Len())
	for i := sh.From; i < sh.End(); i++ {
		dst[i] = p.Tree.RootRAT(s.Next(), vals)
	}
}
