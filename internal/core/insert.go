package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// engine carries the per-run shared state of the dynamic program: the
// immutable inputs (tree, options, precomputed site deviations) plus the
// synchronization needed when subtrees are processed concurrently.
type engine struct {
	tree    *rctree.Tree
	opts    Options
	space   *variation.Space
	ctx     context.Context
	maxCand int
	start   time.Time
	// hull routes buffering through the convex-hull kernel (hull.go).
	// Resolved once per run: HullBuffering != off and a 2P-family rule
	// (the 4P partial order has no per-type single-survivor property).
	hull bool
	// dev holds the precomputed device deviation form per buffer site.
	// Model.Deviation allocates sources lazily and is not goroutine-safe,
	// so the engine resolves every site up front — in post order, the same
	// source-allocation order as the serial engine, keeping SourceIDs (and
	// therefore every term-merge order) bit-identical.
	dev []variation.Form

	// prov is the shared provenance arena all workers append into.
	prov provArena

	// Subtree-cache state (nil/empty when Options.SubtreeCache is unset):
	// fps[id] is the canonical fingerprint of the subtree rooted at id,
	// subSize[id] its node count, cacheMin the eligibility floor.
	cache    *SubtreeCache
	fps      []subtreeKey
	subSize  []int32
	cacheMin int

	// sem holds the spawn tokens for extra DP workers (nil = serial).
	sem chan struct{}
	// abort flips on the first failure so sibling workers stop early.
	abort atomic.Bool

	mu      sync.Mutex
	stats   Stats
	err     error // first real failure (never errAborted)
	arenas  []*variation.Arena
	replays []*cachedList
}

// worker is the per-goroutine state of the DP: private stats, pruner,
// provenance writer, and term arena, merged into the engine when the
// worker retires. The serial engine is simply a run with one worker.
type worker struct {
	eng   *engine
	stats Stats
	prn   *pruner
	prov  provWriter
	terms *variation.Arena
	hull  hullScratch
}

// errAborted is the sentinel a worker returns when it stops because a
// sibling already failed; Insert resolves it to the first real error.
var errAborted = errors.New("core: aborted by concurrent failure")

// Insert runs dynamic-programming buffer insertion on the tree and returns
// the chosen assignment together with the root RAT distribution. With a
// nil Options.Model it is exactly the deterministic van Ginneken algorithm
// over B buffer types; with a model it is the variation-aware algorithm of
// §4 under the pruning rule selected in the options.
//
// Independent subtrees are processed by up to Options.Parallelism workers;
// the returned result is bit-identical for every parallelism level. Trees
// below Options.MinParallelNodes run serially regardless — on small trees
// the spawn/retire overhead costs more than the subtree concurrency wins.
func Insert(tree *rctree.Tree, opts Options) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if tree.NumSinks() == 0 {
		return nil, fmt.Errorf("core: tree has no sinks")
	}
	minPar := o.MinParallelNodes
	if minPar == 0 {
		minPar = DefaultMinParallelNodes
	}
	if o.Parallelism > 1 && tree.Len() < minPar {
		o.Parallelism = 1
	}
	e := &engine{
		tree:    tree,
		opts:    o,
		ctx:     o.Context,
		maxCand: o.MaxCandidates,
		start:   time.Now(),
		hull:    o.HullBuffering != HullOff && o.Rule != Rule4P,
	}
	if o.Model != nil {
		e.space = o.Model.Space
		e.dev = make([]variation.Form, tree.Len())
		for _, id := range tree.PostOrder() {
			if n := tree.Node(id); n.BufferOK {
				e.dev[id] = o.Model.Deviation(int(id), n.Loc)
			}
		}
	} else {
		e.space = variation.NewSpace()
	}
	if o.SubtreeCache != nil {
		e.cache = o.SubtreeCache
		e.cacheMin = o.SubtreeCacheMinNodes
		if e.cacheMin <= 0 {
			e.cacheMin = DefaultSubtreeCacheMinNodes
		}
		e.fps, e.subSize = subtreeFingerprints(tree, &o)
	}
	if o.Parallelism > 1 {
		e.sem = make(chan struct{}, o.Parallelism-1)
	}

	w := e.newWorker()
	rootLists, err := w.dp(tree.Root)
	e.retire(w)
	if err != nil {
		if errors.Is(err, errAborted) {
			err = e.firstErr()
		}
		e.release()
		return nil, err
	}
	res, err := e.selectRoot(rootLists[0])
	e.release()
	return res, err
}

// newWorker creates a DP worker with private stats, pruner, and arenas.
func (e *engine) newWorker() *worker {
	w := &worker{eng: e, terms: variation.NewArena()}
	w.prov = provWriter{pa: &e.prov}
	w.prn = newPruner(e.space, e.opts, &w.stats)
	w.prn.ctx = e.ctx
	e.mu.Lock()
	e.arenas = append(e.arenas, w.terms)
	e.mu.Unlock()
	return w
}

// retire folds a worker's counters, including its arena occupancy, into
// the run totals.
func (e *engine) retire(w *worker) {
	w.stats.Workers = 1
	w.stats.ArenaCandidates = w.prov.count
	w.stats.ArenaTerms = w.terms.Terms()
	w.stats.ArenaBytes = w.terms.Bytes()
	w.stats.ArenaUsedBytes = w.terms.UsedBytes()
	e.mu.Lock()
	e.stats.Add(w.stats)
	e.mu.Unlock()
}

// release returns every term arena's slabs to the shared pool. Only legal
// once nothing can touch a candidate form again (Result detaches its RAT
// with Clone in selectRoot, and subtree-cache entries deep-copy their
// terms when stored).
func (e *engine) release() {
	e.mu.Lock()
	arenas := e.arenas
	e.arenas = nil
	e.mu.Unlock()
	for _, a := range arenas {
		a.Release()
	}
}

// fail records the first real failure and flips the abort flag so sibling
// workers wind down at their next node.
func (e *engine) fail(err error) error {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.abort.Store(true)
	return err
}

func (e *engine) firstErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	return errAborted
}

// addReplay registers a restored cache list for decision replay and
// returns its table index (stored in opCached provenance records).
func (e *engine) addReplay(cl *cachedList) int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replays = append(e.replays, cl)
	return int32(len(e.replays) - 1)
}

// replayEntry resolves a replay-table index written by addReplay.
func (e *engine) replayEntry(idx int32) *cachedList {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.replays[idx]
}

// dp computes the candidate frontiers of the subtree rooted at id, going
// through the subtree cache when the node is eligible. Per-node abort and
// context checks happen here so every node pays them exactly once, cached
// or not.
func (w *worker) dp(id rctree.NodeID) (polarityLists, error) {
	e := w.eng
	if e.abort.Load() {
		return polarityLists{}, errAborted
	}
	if e.ctx != nil {
		if cerr := e.ctx.Err(); cerr != nil {
			return polarityLists{}, e.fail(w.contextErr(cerr))
		}
	}
	if e.fps != nil && e.subSize[id] >= int32(e.cacheMin) {
		if ent := e.cache.lookup(e.fps[id]); ent != nil {
			w.stats.SubtreeHits++
			pl := w.restoreCached(id, ent)
			if total := pl[0].len() + pl[1].len(); total > w.stats.PeakList {
				w.stats.PeakList = total
			}
			w.stats.Nodes++
			return pl, nil
		}
		w.stats.SubtreeMisses++
		pl, err := w.dpCompute(id)
		if err == nil && e.storeSubtree(id, pl) {
			w.stats.SubtreeStores++
		}
		return pl, err
	}
	return w.dpCompute(id)
}

// dpCompute is the uncached DP step at one node. Children of multi-child
// nodes are DP'd concurrently when spawn tokens are available; the fold
// over child results always runs on this worker in child order, so the
// generated candidate sequence — and with it every sort, prune, and
// merge — matches the serial engine exactly.
func (w *worker) dpCompute(id rctree.NodeID) (polarityLists, error) {
	e := w.eng
	node := e.tree.Node(id)
	var pl polarityLists
	switch node.Kind {
	case rctree.KindSink:
		// A sink must receive the true polarity.
		pl[0] = w.leaf(id, node)
	default:
		kids := node.Children
		sub := make([]polarityLists, len(kids))
		errs := make([]error, len(kids))
		if e.sem != nil && len(kids) > 1 {
			// Fan out: children beyond the first run on spawned workers
			// when tokens are free; the rest run inline on this worker.
			var wg sync.WaitGroup
			inline := make([]int, 0, len(kids))
			inline = append(inline, 0)
			for i := 1; i < len(kids); i++ {
				select {
				case e.sem <- struct{}{}:
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						defer func() { <-e.sem }()
						cw := e.newWorker()
						sub[i], errs[i] = cw.dp(kids[i])
						e.retire(cw)
					}(i)
				default:
					inline = append(inline, i)
				}
			}
			for _, i := range inline {
				sub[i], errs[i] = w.dp(kids[i])
			}
			wg.Wait()
		} else {
			for i, child := range kids {
				sub[i], errs[i] = w.dp(child)
				if errs[i] != nil {
					break
				}
			}
		}
		for _, err := range errs {
			if err != nil {
				return polarityLists{}, err
			}
		}
		// Join: wire each subtree up to this node and merge in child
		// order — the same operation sequence as the serial engine.
		for i, child := range kids {
			var wired polarityLists
			for p := 0; p < 2; p++ {
				wired[p] = w.wireUp(id, child, sub[i][p])
			}
			sub[i] = polarityLists{} // release early
			if i == 0 {
				pl = wired
				continue
			}
			// Subtrees sharing a driving point must require the same
			// polarity; a polarity unavailable on either side dies.
			for p := 0; p < 2; p++ {
				if pl[p].len() == 0 || wired[p].len() == 0 {
					pl[p] = nil
					continue
				}
				merged, err := w.merge(id, pl[p], wired[p])
				if err != nil {
					return polarityLists{}, e.fail(err)
				}
				pl[p] = w.prn.prune(merged)
			}
		}
	}
	if node.BufferOK {
		raw := w.addBuffers(id, node, pl)
		if err := w.checkBudget(raw[0].len() + raw[1].len()); err != nil {
			return polarityLists{}, e.fail(err)
		}
		for p := 0; p < 2; p++ {
			if raw[p] != nil {
				pl[p] = w.prn.prune(raw[p])
			} else {
				pl[p] = nil
			}
		}
	}
	if w.prn.ctxErr != nil {
		return polarityLists{}, e.fail(w.contextErr(w.prn.ctxErr))
	}
	total := pl[0].len() + pl[1].len()
	if err := w.checkBudget(total); err != nil {
		return polarityLists{}, e.fail(err)
	}
	if total > w.stats.PeakList {
		w.stats.PeakList = total
	}
	w.stats.Nodes++
	return pl, nil
}

// leaf builds the sink frontier (eq. "L = CapLoad, T = RAT").
func (w *worker) leaf(id rctree.NodeID, node *rctree.Node) *frontier {
	f := newFrontier(1, w.prn.needSigmas())
	ref := w.prov.alloc(prov{pred: -1, pred2: -1, node: id, aux: -1, op: opLeaf})
	f.push(variation.Const(node.CapLoad), variation.Const(node.RAT), ref, w.eng.space)
	w.stats.Generated++
	return f
}

// wireUp propagates a candidate frontier along the edge child → parent
// (eq. 25–26 / 33–34). Without wire sizing the transformation is
// order-preserving, so a pruned, sorted input stays pruned and sorted;
// with a wire library every choice is generated and the union pruned.
func (w *worker) wireUp(parent, child rctree.NodeID, f *frontier) *frontier {
	l := w.eng.tree.Node(child).WireLen
	if l == 0 {
		return f
	}
	if len(w.eng.opts.WireLibrary) == 0 {
		out := newFrontier(f.len(), w.prn.needSigmas())
		w.wireChoice(out, child, f, w.eng.tree.Wire, -1)
		return out
	}
	out := newFrontier(f.len()*len(w.eng.opts.WireLibrary), w.prn.needSigmas())
	for wi, wc := range w.eng.opts.WireLibrary {
		w.wireChoice(out, child, f, wc.Params, int32(wi))
	}
	return w.prn.prune(out)
}

// wireChoice applies one wire option along the edge child → parent,
// appending to out. The provenance records the child node so backtracking
// can attribute the sizing decision to its edge.
func (w *worker) wireChoice(out *frontier, child rctree.NodeID, f *frontier, wp rctree.WireParams, wi int32) {
	l := w.eng.tree.Node(child).WireLen
	halfRC := 0.5 * wp.R * wp.C * l * l
	n := f.len()
	for i := 0; i < n; i++ {
		sL := f.lform(i)
		nl := sL.Shift(wp.C * l)
		nt := f.tform(i).AXPYIn(w.terms, -wp.R*l, sL).Shift(-halfRC)
		ref := w.prov.alloc(prov{pred: f.ref[i], pred2: -1, node: child, aux: wi, op: opWire})
		out.push(nl, nt, ref, w.eng.space)
	}
	w.stats.Generated += int64(n)
}

// deviation returns the relative device deviation form at a site, or the
// zero form for deterministic runs. Sites were resolved up front, so this
// never touches the model.
func (e *engine) deviation(id rctree.NodeID) variation.Form {
	if e.dev == nil {
		return variation.Form{}
	}
	return e.dev[id]
}

// addBuffers augments the polarity frontiers with buffered candidates at
// a legal site, dispatching between the exact per-pair generator and the
// convex-hull kernel (hull.go). Both paths produce frontiers whose
// surviving candidates are bit-identical after the prune.
func (w *worker) addBuffers(id rctree.NodeID, node *rctree.Node, pl polarityLists) polarityLists {
	if w.eng.hull {
		return w.addBuffersHull(id, node, pl)
	}
	return w.addBuffersExact(id, node, pl)
}

// addBuffersExact augments the polarity frontiers with one buffered
// candidate per (existing candidate, buffer type) pair (eq. 27–28 /
// 35–36). Both C_b and T_b of a buffer at one site share the same
// underlying deviation (they are driven by the same device's process
// parameters), per eq. 23–24. A non-inverting buffer keeps the
// candidate's required polarity; an inverter flips it.
//
// Drive-capability semantics: MaxLoad is compared against the
// candidate's *nominal* downstream load only. Under variation the true
// load is a distribution (L = ln ± σ), and a buffer is considered able
// to drive any candidate whose mean load fits — load σ is deliberately
// ignored, mirroring the deterministic library characterization the
// MaxLoad figure comes from. A yield-aware drive check (e.g. nominal +
// k·σ ≤ MaxLoad) would be a semantic change to the DP's feasible set;
// TestMaxLoadNominalSemantics pins the current behavior. The hull
// kernel applies the identical gate.
func (w *worker) addBuffersExact(id rctree.NodeID, node *rctree.Node, pl polarityLists) polarityLists {
	dev := w.eng.deviation(id)
	out := pl
	// Snapshot the input lengths: buffered candidates are appended to the
	// same frontiers but must never be buffered again at this node.
	n0 := [2]int{pl[0].len(), pl[1].len()}
	for bi, b := range w.eng.opts.Library {
		cbForm := dev.ScaleIn(w.terms, b.Cb0).Shift(b.Cb0)
		tbForm := dev.ScaleIn(w.terms, b.Tb0).Shift(b.Tb0)
		for p := 0; p < 2; p++ {
			target := p
			if b.Inverting {
				target = 1 - p
			}
			src := pl[p]
			for i := 0; i < n0[p]; i++ {
				// Drive-capability constraint: a buffer may not drive
				// more than its MaxLoad (checked on nominal load).
				if b.MaxLoad > 0 && src.ln[i] > b.MaxLoad {
					continue
				}
				sT := src.tform(i)
				nt := sT.SubIn(w.terms, tbForm).AXPYIn(w.terms, -b.Rb, src.lform(i))
				ref := w.prov.alloc(prov{pred: src.ref[i], pred2: -1, node: id, aux: int32(bi), op: opBuffer})
				if out[target] == nil {
					out[target] = newFrontier(n0[p], w.prn.needSigmas())
				}
				out[target].push(cbForm, nt, ref, w.eng.space)
				w.stats.Generated++
			}
		}
	}
	return out
}

// checkBudget enforces the candidate cap.
func (w *worker) checkBudget(n int) error {
	if w.eng.maxCand > 0 && n > w.eng.maxCand {
		return w.capacityErr(n)
	}
	return nil
}

func (w *worker) capacityErr(n int) error {
	total := 0
	if w.eng.tree != nil {
		total = w.eng.tree.Len()
	}
	return fmt.Errorf("%w: %d candidates > limit %d (rule %v, node %d of %d)",
		ErrCapacity, n, w.eng.maxCand, w.eng.opts.Rule, w.stats.Nodes, total)
}

// contextErr maps the run context's error to ErrTimeout (its deadline
// passed) or ErrCanceled (any other cancellation), wrapping the cause.
func (w *worker) contextErr(cause error) error {
	sentinel := ErrCanceled
	if errors.Is(cause, context.DeadlineExceeded) {
		sentinel = ErrTimeout
	}
	return fmt.Errorf("%w after %d nodes: %w", sentinel, w.stats.Nodes, cause)
}

// selectRoot applies the driver delay to every surviving root candidate
// and picks the one maximizing the objective: nominal RAT for
// deterministic runs, the SelectQuantile RAT quantile (e.g. the 95%-yield
// RAT at 0.05) for variation-aware runs.
func (e *engine) selectRoot(rootList *frontier) (*Result, error) {
	if rootList.len() == 0 {
		return nil, fmt.Errorf("core: no true-polarity candidates survived to the root" +
			" (an inverter-only library cannot always deliver even inversion counts)")
	}
	deterministic := e.opts.Model == nil
	best := -1
	var bestRAT variation.Form
	bestObj := 0.0
	for i := 0; i < rootList.len(); i++ {
		rat := rootList.tform(i).AXPY(-e.tree.DriverR, rootList.lform(i))
		obj := rat.Nominal
		if !deterministic {
			obj = rat.Quantile(e.opts.SelectQuantile, e.space)
		}
		if best < 0 || obj > bestObj {
			best = i
			bestObj = obj
			bestRAT = rat
		}
	}
	var dec candDecisions
	e.collectDecisions(rootList.ref[best], &dec)
	assignment := make(map[rctree.NodeID]int, len(dec.bufs))
	for _, c := range dec.bufs {
		assignment[c.node] = int(c.idx)
	}
	var wires map[rctree.NodeID]int
	if len(e.opts.WireLibrary) > 0 {
		wires = make(map[rctree.NodeID]int, len(dec.wires))
		for _, c := range dec.wires {
			wires[c.node] = int(c.idx)
		}
	}
	e.stats.Elapsed = time.Since(e.start)
	// Detach the RAT from the (pooled) term arenas before they are
	// released: the fast path of AXPY can alias a candidate's terms.
	bestRAT = bestRAT.Clone()
	return &Result{
		Assignment:     assignment,
		WireAssignment: wires,
		RAT:            bestRAT,
		Mean:           bestRAT.Nominal,
		Sigma:          bestRAT.Sigma(e.space),
		Objective:      bestObj,
		NumBuffers:     len(assignment),
		RootCandidates: rootList.len(),
		Stats:          e.stats,
	}, nil
}
