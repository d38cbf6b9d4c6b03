// Package skew implements the paper's stated future work (§6): applying
// the 2P pruning machinery to clock-skew minimization. Buffer insertion on
// a clock tree must equalize source-to-sink delays rather than maximize a
// required arrival time, so a candidate solution carries three canonical
// figures of merit — the downstream loading L and the maximum and minimum
// source-side delays Dmax, Dmin from the candidate's node to any sink
// below it. The dynamic program reuses the first-order variation model:
// wires and buffers shift Dmax and Dmin together (preserving skew and
// their correlation), merges take the statistical MAX of Dmax and MIN of
// Dmin, and the skew form Dmax − Dmin keeps all shared variation
// cancelled exactly.
//
// Ordering candidates "by mean" per coordinate is justified exactly as in
// §2.3 (Lemma 4), but with three figures of merit the dominance relation
// is a Pareto partial order rather than a chain, so pruning is a sweep
// against the kept Pareto set; capacity caps guard the worst case.
package skew

import (
	"fmt"
	"time"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// Options configures a skew-minimization run.
type Options struct {
	// Library is the buffer library. Required.
	Library device.Library
	// Model supplies variation sources; nil runs deterministically.
	Model *variation.Model
	// SkewQuantile selects the objective quantile: the run minimizes this
	// quantile of the skew distribution (default 0.95: minimize the skew
	// that 95% of dies will not exceed).
	SkewQuantile float64
	// LatencyWeight adds the same quantile of the insertion delay (Dmax)
	// to the objective, trading skew against latency. Zero minimizes pure
	// skew with latency as an implicit tie-breaker.
	LatencyWeight float64
	// Epsilon enables ε-dominance coarsening: a candidate within Epsilon
	// (ps / fF) of a kept candidate on all three mean figures of merit is
	// treated as dominated. This bounds the Pareto fronts that make the
	// three-criteria DP combinatorial, at a bounded objective error of
	// roughly Epsilon per tree level. Zero selects the 0.1 default; set
	// it negative for exact (exponential worst-case) pruning.
	Epsilon float64
	// MaxCandidates caps the per-node candidate list and merge products
	// (0 selects the 500k default).
	MaxCandidates int
	// Timeout bounds the wall clock (0 = unlimited).
	Timeout time.Duration
}

// Result is the outcome of a skew-minimization run.
type Result struct {
	// Assignment maps node IDs to buffer library indices.
	Assignment map[rctree.NodeID]int
	// Skew is the canonical form of Dmax - Dmin at the root.
	Skew variation.Form
	// SkewMean, SkewSigma and SkewQ summarize the skew distribution; SkewQ
	// is the SkewQuantile quantile that was minimized.
	SkewMean, SkewSigma, SkewQ float64
	// LatencyMean is the mean of the maximum insertion delay Dmax
	// (excluding the driver, which shifts every sink equally).
	LatencyMean float64
	// NumBuffers is len(Assignment).
	NumBuffers int
	// Candidates counts all candidates generated; PeakList the largest
	// surviving list.
	Candidates int64
	PeakList   int
}

type cand struct {
	L          variation.Form
	dmax, dmin variation.Form
	node       rctree.NodeID
	op         opKind
	buf        int16
	pred       *cand
	pred2      *cand
}

type opKind uint8

const (
	opLeaf opKind = iota
	opWire
	opBuffer
	opMerge
)

// Minimize runs the skew-aware buffer-insertion DP over the tree.
func Minimize(tree *rctree.Tree, opts Options) (*Result, error) {
	if err := opts.Library.Validate(); err != nil {
		return nil, err
	}
	for _, b := range opts.Library {
		if b.Inverting {
			return nil, fmt.Errorf("skew: inverting buffer %q not supported (skew engine does not track polarity)", b.Name)
		}
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if tree.NumSinks() == 0 {
		return nil, fmt.Errorf("skew: tree has no sinks")
	}
	if opts.SkewQuantile == 0 {
		opts.SkewQuantile = 0.95
	}
	if !(opts.SkewQuantile > 0 && opts.SkewQuantile < 1) {
		return nil, fmt.Errorf("skew: quantile %g outside (0, 1)", opts.SkewQuantile)
	}
	if opts.LatencyWeight < 0 {
		return nil, fmt.Errorf("skew: negative latency weight %g", opts.LatencyWeight)
	}
	switch {
	case opts.Epsilon == 0:
		opts.Epsilon = 0.1
	case opts.Epsilon < 0:
		opts.Epsilon = 0
	}
	if opts.MaxCandidates == 0 {
		opts.MaxCandidates = 500_000
	}
	space := variation.NewSpace()
	if opts.Model != nil {
		space = opts.Model.Space
	}
	e := &skewEngine{
		tree:  tree,
		opts:  opts,
		space: space,
		start: time.Now(),
	}
	lists := make([][]*cand, tree.Len())
	for _, id := range tree.PostOrder() {
		if opts.Timeout > 0 && time.Since(e.start) > opts.Timeout {
			return nil, fmt.Errorf("skew: time limit exceeded after %d nodes", e.nodes)
		}
		node := tree.Node(id)
		var list []*cand
		switch node.Kind {
		case rctree.KindSink:
			list = []*cand{{
				L:    variation.Const(node.CapLoad),
				dmax: variation.Const(0),
				dmin: variation.Const(0),
				node: id,
				op:   opLeaf,
			}}
			e.generated++
		default:
			for k, child := range node.Children {
				cl := e.wireUp(child, lists[child])
				lists[child] = nil
				if k == 0 {
					list = cl
					continue
				}
				merged, err := e.merge(id, list, cl)
				if err != nil {
					return nil, err
				}
				list = e.prune(merged)
			}
		}
		if node.BufferOK {
			list = e.prune(e.addBuffers(id, node, list))
		}
		if opts.MaxCandidates > 0 && len(list) > opts.MaxCandidates {
			return nil, fmt.Errorf("skew: %d candidates exceed limit %d at node %d",
				len(list), opts.MaxCandidates, id)
		}
		if len(list) > e.peak {
			e.peak = len(list)
		}
		e.nodes++
		lists[id] = list
	}
	return e.selectRoot(lists[tree.Root])
}

type skewEngine struct {
	tree      *rctree.Tree
	opts      Options
	space     *variation.Space
	start     time.Time
	generated int64
	peak      int
	nodes     int
}

// wireUp adds the edge delay r·l·(c·l/2 + L) to both Dmax and Dmin — the
// shift is identical (and identically correlated) for every sink below.
func (e *skewEngine) wireUp(child rctree.NodeID, list []*cand) []*cand {
	l := e.tree.Node(child).WireLen
	if l == 0 {
		return list
	}
	r := e.tree.Wire.R
	c := e.tree.Wire.C
	halfRC := 0.5 * r * c * l * l
	out := make([]*cand, len(list))
	for i, s := range list {
		out[i] = &cand{
			L:    s.L.Shift(c * l),
			dmax: s.dmax.AXPY(r*l, s.L).Shift(halfRC),
			dmin: s.dmin.AXPY(r*l, s.L).Shift(halfRC),
			node: child,
			op:   opWire,
			pred: s,
		}
	}
	e.generated += int64(len(list))
	return out
}

// addBuffers inserts each library buffer at the node: delay T_b + R_b·L is
// added to both extremes and the upstream load becomes C_b (with the
// site's shared deviation on both C_b and T_b).
func (e *skewEngine) addBuffers(id rctree.NodeID, node *rctree.Node, list []*cand) []*cand {
	var dev variation.Form
	if e.opts.Model != nil {
		dev = e.opts.Model.Deviation(int(id), node.Loc)
	}
	out := list
	for bi, b := range e.opts.Library {
		cbForm := variation.Const(b.Cb0).Add(dev.Scale(b.Cb0))
		tbForm := variation.Const(b.Tb0).Add(dev.Scale(b.Tb0))
		for _, s := range list {
			if b.MaxLoad > 0 && s.L.Nominal > b.MaxLoad {
				continue
			}
			d := tbForm.AXPY(b.Rb, s.L)
			out = append(out, &cand{
				L:    cbForm,
				dmax: s.dmax.Add(d),
				dmin: s.dmin.Add(d),
				node: id,
				op:   opBuffer,
				buf:  int16(bi),
				pred: s,
			})
		}
		e.generated += int64(len(list))
	}
	return out
}

// merge joins two subtree solutions: loads add, Dmax takes the statistical
// MAX and Dmin the statistical MIN. The cross product is consumed in
// blocks with ε-dominance pruning between blocks, so the working set stays
// proportional to the Pareto front rather than to n·m.
func (e *skewEngine) merge(id rctree.NodeID, a, b []*cand) ([]*cand, error) {
	var out []*cand
	for _, ca := range a {
		for _, cb := range b {
			out = append(out, &cand{
				L:     ca.L.Add(cb.L),
				dmax:  variation.Max(ca.dmax, cb.dmax, e.space).Form,
				dmin:  variation.Min(ca.dmin, cb.dmin, e.space).Form,
				node:  id,
				op:    opMerge,
				pred:  ca,
				pred2: cb,
			})
			e.generated++
		}
		if len(out) >= 4096 {
			out = e.prune(out)
			if e.opts.MaxCandidates > 0 && len(out) > e.opts.MaxCandidates {
				return nil, fmt.Errorf("skew: merge front %d exceeds limit %d at node %d",
					len(out), e.opts.MaxCandidates, id)
			}
		}
	}
	return out, nil
}

// prune removes Pareto-dominated candidates: a dominates b when a's mean
// load, mean Dmax are no larger and its mean Dmin no smaller (with at
// least one strict or exact duplication), the three-figure analog of the
// 2P rule at pbar = 0.5.
func (e *skewEngine) prune(list []*cand) []*cand {
	if len(list) <= 1 {
		return list
	}
	// Sort by mean L, then Dmax, then descending Dmin so preferable
	// candidates come first.
	sortCands(list)
	eps := e.opts.Epsilon
	out := list[:0]
	for _, c := range list {
		dominated := false
		for _, k := range out {
			if k.L.Nominal <= c.L.Nominal+eps &&
				k.dmax.Nominal <= c.dmax.Nominal+eps &&
				k.dmin.Nominal >= c.dmin.Nominal-eps {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

func sortCands(list []*cand) {
	// Insertion-friendly multi-key sort.
	lessFn := func(a, b *cand) bool {
		if a.L.Nominal != b.L.Nominal {
			return a.L.Nominal < b.L.Nominal
		}
		if a.dmax.Nominal != b.dmax.Nominal {
			return a.dmax.Nominal < b.dmax.Nominal
		}
		return a.dmin.Nominal > b.dmin.Nominal
	}
	sortSlice(list, lessFn)
}

// selectRoot minimizes the chosen quantile of skew (plus weighted
// latency).
func (e *skewEngine) selectRoot(rootList []*cand) (*Result, error) {
	if len(rootList) == 0 {
		return nil, fmt.Errorf("skew: no candidates survived to the root")
	}
	q := e.opts.SkewQuantile
	var best *cand
	var bestSkew variation.Form
	bestObj := 0.0
	for _, c := range rootList {
		skewForm := c.dmax.Sub(c.dmin)
		obj := skewForm.Quantile(q, e.space)
		if e.opts.LatencyWeight > 0 {
			obj += e.opts.LatencyWeight * c.dmax.Quantile(q, e.space)
		}
		// Ties (e.g. several zero-skew solutions) break toward the lower
		// insertion latency, which also avoids needless buffers.
		if best == nil || obj < bestObj ||
			(obj == bestObj && c.dmax.Nominal < best.dmax.Nominal) {
			best = c
			bestObj = obj
			bestSkew = skewForm
		}
	}
	assignment := make(map[rctree.NodeID]int)
	collect(best, assignment)
	return &Result{
		Assignment:  assignment,
		Skew:        bestSkew,
		SkewMean:    bestSkew.Nominal,
		SkewSigma:   bestSkew.Sigma(e.space),
		SkewQ:       bestSkew.Quantile(q, e.space),
		LatencyMean: best.dmax.Nominal,
		NumBuffers:  len(assignment),
		Candidates:  e.generated,
		PeakList:    e.peak,
	}, nil
}

func collect(c *cand, out map[rctree.NodeID]int) {
	stack := []*cand{c}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for cur != nil {
			switch cur.op {
			case opLeaf:
				cur = nil
			case opWire:
				cur = cur.pred
			case opBuffer:
				out[cur.node] = int(cur.buf)
				cur = cur.pred
			case opMerge:
				stack = append(stack, cur.pred2)
				cur = cur.pred
			}
		}
	}
}
