// Package core implements the paper's contribution: dynamic-programming
// buffer insertion over RC routing trees with candidate solutions carried
// as first-order canonical forms, the two-parameter (2P) pruning rule of
// §2.3 with its linear-time pruning and merging, the four-parameter (4P)
// baseline rule of §2.2 ([7] — the DATE 2005 algorithm), and the classic
// deterministic van Ginneken algorithm as the zero-variation special case.
package core

import (
	"math"
	"math/bits"
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

// newFrontier returns an empty frontier with room for n candidates, its
// columns taken from cp (see colPool).
func newFrontier(cp *colPool, n int, sigmas bool) *frontier {
	f := cp.frontier()
	f.ln = cp.f64.get(n)
	f.tn = cp.f64.get(n)
	f.lt = cp.terms.get(n)
	f.tt = cp.terms.get(n)
	f.ref = cp.i32.get(n)
	if sigmas {
		f.sl = cp.f64.get(n)
		f.st = cp.f64.get(n)
		f.vl = cp.f64.get(n)
	}
	return f
}

// reserve makes room for n more candidates in every column. A column
// without that room moves to a larger one from cp, and its old backing
// goes back to cp.
func (f *frontier) reserve(cp *colPool, n int) {
	f.ln = grow(&cp.f64, f.ln, n)
	f.tn = grow(&cp.f64, f.tn, n)
	f.lt = grow(&cp.terms, f.lt, n)
	f.tt = grow(&cp.terms, f.tt, n)
	f.ref = grow(&cp.i32, f.ref, n)
	if f.sl != nil {
		f.sl = grow(&cp.f64, f.sl, n)
		f.st = grow(&cp.f64, f.st, n)
		f.vl = grow(&cp.f64, f.vl, n)
	}
}

// grow returns s with room for n more elements, moving it to a column
// from fl when it has less.
func grow[T any](fl *freeList[T], s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	d := append(fl.get(len(s)+n), s...)
	fl.put(s)
	return d
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
	v := 0.0
	if f.sl != nil {
		v = l.Var(space)
	}
	f.pushVar(l, t, v, ref, space)
}

// pushVar is push for a caller that already holds vl = l.Var(space):
// every buffered candidate of one type at a site carries that type's
// load form, and a wired candidate keeps its load terms. vl is ignored
// when the frontier carries no moments.
func (f *frontier) pushVar(l, t variation.Form, vl float64, ref int32, space *variation.Space) {
	f.ln = append(f.ln, l.Nominal)
	f.tn = append(f.tn, t.Nominal)
	f.lt = append(f.lt, l.Terms)
	f.tt = append(f.tt, t.Terms)
	f.ref = append(f.ref, ref)
	if f.sl != nil {
		f.vl = append(f.vl, vl)
		f.sl = append(f.sl, math.Sqrt(vl))
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

// colPool recycles the frontier columns of one DP worker. Every
// candidate list lives only from the DP step that builds it to the step
// that consumes it (a merge, a sort gather, a wire library's union), so
// a worker that hands the consumed columns back here takes its next
// columns from them instead of from the heap. Columns come in
// power-of-two capacity classes, one free list per element type.
//
// A pool is touched only by its worker's goroutine. A spawned worker's
// lists reach its parent after the join and are recycled into the
// parent's pool; the spawned worker's own free lists die with it. Pools
// die with the run.
type colPool struct {
	f64    freeList[float64]
	terms  freeList[[]variation.Term]
	i32    freeList[int32]
	fronts []*frontier
}

// colMinShift is the log2 capacity of the smallest column class.
const colMinShift = 3

// freeList holds free columns of one element type; class k holds
// columns of capacity 1<<(k+colMinShift).
type freeList[T any] [bits.UintSize - colMinShift][][]T

// colClass returns the smallest class whose capacity holds n elements.
func colClass(n int) int {
	return max(bits.Len(uint(max(n, 1)-1)), colMinShift) - colMinShift
}

// get returns an empty column with room for at least n elements.
func (fl *freeList[T]) get(n int) []T {
	k := colClass(n)
	if l := fl[k]; len(l) > 0 {
		fl[k] = l[:len(l)-1]
		return l[len(l)-1]
	}
	return make([]T, 0, 1<<(k+colMinShift))
}

// put files s under the largest class its capacity covers. A column of
// term lists is cleared first, up to its capacity, so a free column
// pins no arena slab.
func (fl *freeList[T]) put(s []T) {
	k := bits.Len(uint(cap(s))) - 1 - colMinShift
	if k < 0 {
		return
	}
	if ts, ok := any(s).([][]variation.Term); ok {
		clear(ts[:cap(ts)])
	}
	fl[k] = append(fl[k], s[:0:1<<(k+colMinShift)])
}

// frontier returns a frontier header with no columns.
func (cp *colPool) frontier() *frontier {
	if len(cp.fronts) == 0 {
		return &frontier{}
	}
	f := cp.fronts[len(cp.fronts)-1]
	cp.fronts = cp.fronts[:len(cp.fronts)-1]
	return f
}

// release hands every column of f, and f itself, back to cp. Neither
// may be used afterwards; a nil f is a no-op.
func (cp *colPool) release(f *frontier) {
	if f == nil {
		return
	}
	cp.f64.put(f.ln)
	cp.f64.put(f.tn)
	cp.terms.put(f.lt)
	cp.terms.put(f.tt)
	cp.i32.put(f.ref)
	if f.sl != nil {
		cp.f64.put(f.sl)
		cp.f64.put(f.st)
		cp.f64.put(f.vl)
	}
	*f = frontier{}
	cp.fronts = append(cp.fronts, f)
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
