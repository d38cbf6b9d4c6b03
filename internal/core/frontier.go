// Package core implements the paper's contribution: dynamic-programming
// buffer insertion over RC routing trees with candidate solutions carried
// as first-order canonical forms, the two-parameter (2P) pruning rule of
// §2.3 with its linear-time pruning and merging, the four-parameter (4P)
// baseline rule of §2.2 ([7] — the DATE 2005 algorithm), and the classic
// deterministic van Ginneken algorithm as the zero-variation special case.
package core

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// opKind records how a candidate was produced, for backtracking.
type opKind uint8

const (
	opLeaf opKind = iota
	opWire
	opBuffer
	opMerge
	// opCached marks a candidate restored from the subtree cache. Its
	// buffer/wire decisions were materialized when the entry was stored and
	// replay from the engine's replay table instead of a provenance walk.
	opCached
)

// frontier is a candidate list in struct-of-arrays layout: the scalar keys
// every sort, prune, and merge touches live in contiguous float64 slices,
// so the hot DP passes are flat scans instead of pointer chases over
// per-candidate structs. The variation term lists behind the (L, T)
// canonical forms ride along in parallel slices and are materialized into
// variation.Form values only at the call sites that need them (wire AXPY
// folds, statistical MIN, covariance fallbacks).
//
// A nil *frontier is the empty list.
type frontier struct {
	// ln, tn are the mean loading and mean RAT — the candidate ordering
	// keys of the 2P rule at pbar = 0.5 (Lemma 4).
	ln, tn []float64
	// sl, st cache the standard deviations of L and T, and vl the
	// variance of L (sl is its square root). They are allocated and
	// filled only when the active pruning rule needs them (2P with
	// pbar > 0.5, 4P); nil otherwise. vl answers the covariance of two
	// load forms that share one term slice — every buffered candidate of
	// one type at a site — without a term walk.
	sl, st, vl []float64
	// lt, tt are the sparse variation terms of the L and T forms (nil
	// entries for deterministic candidates).
	lt, tt [][]variation.Term
	// ref is the provenance record index of each candidate (see provArena).
	ref []int32
}

// newFrontier returns an empty frontier with room for n candidates.
func newFrontier(n int, sigmas bool) *frontier {
	f := &frontier{
		ln:  make([]float64, 0, n),
		tn:  make([]float64, 0, n),
		lt:  make([][]variation.Term, 0, n),
		tt:  make([][]variation.Term, 0, n),
		ref: make([]int32, 0, n),
	}
	if sigmas {
		f.sl = make([]float64, 0, n)
		f.st = make([]float64, 0, n)
		f.vl = make([]float64, 0, n)
	}
	return f
}

// reserve grows every column so that n more candidates fit without a
// reallocation; a column with that room already is left as it is.
func (f *frontier) reserve(n int) {
	f.ln = slices.Grow(f.ln, n)
	f.tn = slices.Grow(f.tn, n)
	f.lt = slices.Grow(f.lt, n)
	f.tt = slices.Grow(f.tt, n)
	f.ref = slices.Grow(f.ref, n)
	if f.sl != nil {
		f.sl = slices.Grow(f.sl, n)
		f.st = slices.Grow(f.st, n)
		f.vl = slices.Grow(f.vl, n)
	}
}

// len reports the number of candidates; a nil frontier is empty.
func (f *frontier) len() int {
	if f == nil {
		return 0
	}
	return len(f.ln)
}

// lform materializes the loading form of candidate i.
func (f *frontier) lform(i int) variation.Form {
	return variation.Form{Nominal: f.ln[i], Terms: f.lt[i]}
}

// tform materializes the RAT form of candidate i.
func (f *frontier) tform(i int) variation.Form {
	return variation.Form{Nominal: f.tn[i], Terms: f.tt[i]}
}

// push appends one candidate, computing the cached moments when the
// frontier carries them (exactly the values Form.Var and Form.Sigma
// return).
func (f *frontier) push(l, t variation.Form, ref int32, space *variation.Space) {
	f.ln = append(f.ln, l.Nominal)
	f.tn = append(f.tn, t.Nominal)
	f.lt = append(f.lt, l.Terms)
	f.tt = append(f.tt, t.Terms)
	f.ref = append(f.ref, ref)
	if f.sl != nil {
		v := l.Var(space)
		f.vl = append(f.vl, v)
		f.sl = append(f.sl, math.Sqrt(v))
		f.st = append(f.st, t.Sigma(space))
	}
}

// move copies candidate src into slot dst (the prune compaction step).
func (f *frontier) move(dst, src int) {
	if dst == src {
		return
	}
	f.ln[dst] = f.ln[src]
	f.tn[dst] = f.tn[src]
	f.lt[dst] = f.lt[src]
	f.tt[dst] = f.tt[src]
	f.ref[dst] = f.ref[src]
	if f.sl != nil {
		f.sl[dst] = f.sl[src]
		f.st[dst] = f.st[src]
		f.vl[dst] = f.vl[src]
	}
}

// truncate shortens the frontier to n candidates.
func (f *frontier) truncate(n int) {
	f.ln = f.ln[:n]
	f.tn = f.tn[:n]
	f.lt = f.lt[:n]
	f.tt = f.tt[:n]
	f.ref = f.ref[:n]
	if f.sl != nil {
		f.sl = f.sl[:n]
		f.st = f.st[:n]
		f.vl = f.vl[:n]
	}
}

// polarityLists holds the candidate frontiers per required signal polarity:
// index 0 is the true signal, index 1 the inverted one. Without inverting
// buffers in the library, list 1 stays empty everywhere and the engine
// behaves exactly as the classic single-list DP.
type polarityLists [2]*frontier

// prov is one provenance record: how a candidate was produced, addressed
// by index into the run's provArena. The DAG through pred/pred2 is walked
// only at the very end (backtracking the chosen assignment) and when a
// subtree frontier is stored into the cache.
type prov struct {
	// pred, pred2 are arena indices of the predecessor candidates
	// (-1 = none). For opCached, pred is the candidate's position in the
	// replay-table entry named by aux.
	pred, pred2 int32
	// node is the tree node the operation happened at (the wire edge's
	// child node for opWire).
	node rctree.NodeID
	// aux is the buffer library index (opBuffer), the wire library index
	// (opWire; -1 without wire sizing), or the replay-table index
	// (opCached).
	aux int32
	op  opKind
}

// provBlock is the number of records per arena chunk (~80 KiB).
const provBlock = 4096

type provChunk [provBlock]prov

// provChunks recycles chunks across runs. A worker grabs one as soon as
// it records its first candidate, so without reuse every spawned worker,
// however small its subtree, would zero a fresh 80 KiB. A recycled
// chunk's stale records are never read: each record is written before
// its index is handed out.
var provChunks = sync.Pool{New: func() any { return new(provChunk) }}

// provArena stores provenance records in fixed-size chunks addressed by a
// dense global index. Each DP worker appends through its own provWriter;
// the chunk table is republished copy-on-write through an atomic pointer,
// so a worker storing a subtree into the cache can walk records written by
// its (already joined) child workers while unrelated workers keep
// allocating. Record contents are only ever read after the writing worker
// finished the subtree (WaitGroup join or run end), so the records
// themselves need no synchronization.
type provArena struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]*provChunk]
}

// grab hands a fresh chunk and its base index to a worker.
func (pa *provArena) grab() (int32, *provChunk) {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	var old []*provChunk
	if p := pa.chunks.Load(); p != nil {
		old = *p
	}
	next := make([]*provChunk, len(old)+1)
	copy(next, old)
	c := provChunks.Get().(*provChunk)
	next[len(old)] = c
	pa.chunks.Store(&next)
	return int32(len(old) * provBlock), c
}

// release parks every chunk for reuse by later runs. The arena must not
// be used afterwards.
func (pa *provArena) release() {
	if p := pa.chunks.Swap(nil); p != nil {
		for _, c := range *p {
			provChunks.Put(c)
		}
	}
}

// at returns the record with the given index. Only call for indices whose
// writing worker has been joined (see provArena).
func (pa *provArena) at(idx int32) *prov {
	chunks := *pa.chunks.Load()
	return &chunks[idx/provBlock][idx%provBlock]
}

// provWriter is one worker's append handle into the shared provArena.
type provWriter struct {
	pa    *provArena
	chunk *provChunk
	base  int32
	off   int32
	count int64
}

// alloc appends a record and returns its arena index.
func (w *provWriter) alloc(p prov) int32 {
	if w.chunk == nil || w.off == provBlock {
		w.base, w.chunk = w.pa.grab()
		w.off = 0
	}
	w.chunk[w.off] = p
	idx := w.base + w.off
	w.off++
	w.count++
	return idx
}

// collectDecisions walks the provenance DAG from the record at idx and
// appends every buffer and wire-sizing decision to d in walk order. A
// node is decided at most once per candidate (one buffer per site, one
// wire choice per edge, disjoint subtrees under a merge), so d needs no
// deduplication. The walk is iterative to stay safe on very deep
// candidate chains (segmentized wires, large H-trees).
func (e *engine) collectDecisions(idx int32, d *candDecisions) {
	var buf [32]int32
	stack := append(buf[:0], idx)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for cur >= 0 {
			p := e.prov.at(cur)
			switch p.op {
			case opLeaf:
				cur = -1
			case opWire:
				if p.aux >= 0 {
					d.wires = append(d.wires, nodeChoice{node: p.node, idx: int16(p.aux)})
				}
				cur = p.pred
			case opBuffer:
				d.bufs = append(d.bufs, nodeChoice{node: p.node, idx: int16(p.aux)})
				cur = p.pred
			case opMerge:
				stack = append(stack, p.pred2)
				cur = p.pred
			case opCached:
				c := e.replayEntry(p.aux).dec[p.pred]
				d.bufs = append(d.bufs, c.bufs...)
				d.wires = append(d.wires, c.wires...)
				cur = -1
			}
		}
	}
}
