package yield

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// MCProgram is a buffered tree compiled once per Monte-Carlo run: the
// flat post-order walk of rctree.Program plus, per buffer slot, the
// library cell's nominal values and the site's resolved deviation form.
// Compiling resolves every deviation serially, so the model is read-only
// afterwards and workers may share one program, each drawing through its
// own Sampler.
type MCProgram struct {
	// Tree is the compiled topology; Tree.Buffers[k] carries slot k.
	Tree  *rctree.Program
	slots []mcSlot
	// shared holds the deviation prefixes two or more slots share: a
	// form's nominal and all of its terms but the last. Each is
	// evaluated once per sample.
	shared []variation.Form
	// sources lists, ascending, the IDs of the sources the slots'
	// deviations reference, and sigma their standard deviations: the
	// only sources a sample draws.
	sources []variation.SourceID
	sigma   []float64
}

// mcSlot is one placed buffer: cell values and the site deviation D, so
// a sample realizes C = Cb0·(1+D), T = Tb0·(1+D), R = Rb.
type mcSlot struct {
	cb0, tb0, rb float64
	dev          variation.Form
	// pre indexes the slot's prefix in MCProgram.shared, or is -1 when no
	// other slot shares it and the sampler evaluates dev in full.
	pre int32
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
	p := &MCProgram{Tree: prog, slots: slots, shared: sharePrefixes(slots)}
	p.reference(model.Space)
	return p, nil
}

// reference records, ascending, the IDs of the sources the slots' forms
// name, with their sigmas.
func (p *MCProgram) reference(space *variation.Space) {
	used := make([]bool, space.Len())
	for _, sl := range p.slots {
		for _, t := range sl.dev.Terms {
			used[t.ID] = true
		}
	}
	for id, u := range used {
		if u {
			p.sources = append(p.sources, variation.SourceID(id))
			p.sigma = append(p.sigma, space.Sigma(variation.SourceID(id)))
		}
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
func sharePrefixes(slots []mcSlot) []variation.Form {
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

// Sampler reads buffer realizations of a compiled program from the keyed
// stream of one seed, with its own scratch. Sample i's values depend
// only on (seed, i), never on which Sampler drew them or in what order.
// It is not safe for concurrent use.
type Sampler struct {
	p     *MCProgram
	draws *variation.Draws
	src   []float64 // src[id] is the current sample's value of source id
	pv    []float64 // pv[i] is the value of p.shared[i] on src
	bufs  []rctree.BufferValues
}

// Sampler starts a reader of the stream seeded by seed.
func (p *MCProgram) Sampler(seed int64) *Sampler {
	n := 0
	if len(p.sources) > 0 {
		n = int(p.sources[len(p.sources)-1]) + 1
	}
	return &Sampler{
		p:     p,
		draws: variation.NewDraws(seed),
		src:   make([]float64, n),
		pv:    make([]float64, len(p.shared)),
		bufs:  make([]rctree.BufferValues, len(p.slots)),
	}
}

// Sample draws sample i of every source the program references and
// returns the buffer values it implies, indexed by slot. The slice is
// reused by the next call.
func (s *Sampler) Sample(i int) []rctree.BufferValues {
	s.draws.Seek(i)
	for k, id := range s.p.sources {
		s.src[id] = s.draws.Next(id) * s.p.sigma[k]
	}
	return s.realize()
}

// realize evaluates the buffer values of the source values in s.src.
func (s *Sampler) realize() []rctree.BufferValues {
	src, pv := s.src, s.pv
	for i, f := range s.p.shared {
		pv[i] = f.Eval(src)
	}
	for k := range s.p.slots {
		sl := &s.p.slots[k]
		d := sl.deviation(src, pv)
		s.bufs[k] = rctree.BufferValues{C: sl.cb0 * (1 + d), T: sl.tb0 * (1 + d), R: sl.rb}
	}
	return s.bufs
}

// deviation returns dev.Eval(src) bit for bit, given pv[i] =
// shared[i].Eval(src). Form.Eval is a left fold of v += c*x from the
// nominal, so a shared prefix's value is the fold's partial sum before
// the last term, and one more v + c*x of the same shape finishes it.
func (sl *mcSlot) deviation(src, pv []float64) float64 {
	if sl.pre < 0 {
		return sl.dev.Eval(src)
	}
	t := sl.dev.Terms[len(sl.dev.Terms)-1]
	return pv[sl.pre] + t.Coef*src[t.ID]
}

// sample fills dst[sh.From:sh.End()] with the root RATs of those
// samples of the stream seeded seed. Disjoint ranges may fill one dst
// concurrently.
func (p *MCProgram) sample(dst []float64, seed int64, sh stats.Shard) {
	s := p.Sampler(seed)
	vals := make([]rctree.LT, p.Tree.Len())
	for i := sh.From; i < sh.End(); i++ {
		dst[i] = p.Tree.RootRAT(s.Sample(i), vals)
	}
}
