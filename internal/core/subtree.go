package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// DefaultSubtreeCacheMinNodes is the smallest subtree (node count) the
// cache will memoize when Options.SubtreeCacheMinNodes is zero. Tiny
// subtrees cost more to fingerprint-lookup and restore than to recompute.
const DefaultSubtreeCacheMinNodes = 16

// subtreeKey is the canonical fingerprint of (subtree, run configuration):
// equal keys guarantee the DP computes bit-identical candidate frontiers.
type subtreeKey [sha256.Size]byte

// nodeChoice is one materialized decision: a buffer or wire library index
// at a tree node.
type nodeChoice struct {
	node rctree.NodeID
	idx  int16
}

// candDecisions is the full decision set of one cached candidate,
// materialized at store time so restored candidates need no provenance
// from the run that produced them.
type candDecisions struct {
	bufs  []nodeChoice
	wires []nodeChoice
}

// clone copies d into exactly sized slices (nil when empty), detaching
// it from a reused scratch collector.
func (d candDecisions) clone() candDecisions {
	var c candDecisions
	if len(d.bufs) > 0 {
		c.bufs = slices.Clone(d.bufs)
	}
	if len(d.wires) > 0 {
		c.wires = slices.Clone(d.wires)
	}
	return c
}

// cachedList is one polarity frontier detached from its run: scalar keys,
// term slices over a private flat backing array (safe to share read-only
// across runs — forms are immutable), and per-candidate decisions.
type cachedList struct {
	ln, tn []float64
	sl, st []float64 // nil when the config's rule needs no sigmas
	lt, tt [][]variation.Term
	terms  []variation.Term // flat backing of lt/tt
	dec    []candDecisions
}

// subtreeEntry is one cache entry: both polarity lists for one key.
type subtreeEntry struct {
	key   subtreeKey
	lists [2]*cachedList
	bytes int64
}

// SubtreeCache memoizes per-subtree DP frontiers across Insert calls,
// keyed by canonical subtree fingerprints. Batch sweeps and ECO-style
// re-inserts that share subtrees recompute only the changed branches.
// Under a variation model the fingerprint covers the model instance's
// token, so runs hit each other's entries only when they share one
// model: callers that re-insert edited trees should reuse the model
// built for the first tree with the same buffer-site layout (vabufd
// keys its model cache that way).
// Safe for concurrent use; entries are evicted LRU under a byte budget.
type SubtreeCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[subtreeKey]*list.Element // value: *subtreeEntry
	lru      *list.List                   // front = most recently used

	hits, misses, stores, evictions int64
}

// DefaultSubtreeCacheBytes is the byte budget NewSubtreeCache applies when
// given a non-positive limit (64 MiB).
const DefaultSubtreeCacheBytes = 64 << 20

// NewSubtreeCache creates a subtree frontier cache bounded to maxBytes
// (<= 0 selects DefaultSubtreeCacheBytes). One cache may be shared by any
// number of concurrent Insert calls and configurations — the fingerprint
// covers everything that influences a frontier, including the variation
// model instance.
func NewSubtreeCache(maxBytes int64) *SubtreeCache {
	if maxBytes <= 0 {
		maxBytes = DefaultSubtreeCacheBytes
	}
	return &SubtreeCache{
		maxBytes: maxBytes,
		entries:  make(map[subtreeKey]*list.Element),
		lru:      list.New(),
	}
}

// SubtreeCacheStats is a point-in-time snapshot of cache counters.
type SubtreeCacheStats struct {
	Hits, Misses, Stores, Evictions int64
	Entries                         int
	Bytes, MaxBytes                 int64
}

// Stats returns a snapshot of the cache counters.
func (c *SubtreeCache) Stats() SubtreeCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SubtreeCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Stores:    c.stores,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}

// lookup returns the entry for key (refreshing its LRU position) or nil.
func (c *SubtreeCache) lookup(key subtreeKey) *subtreeEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*subtreeEntry)
}

// store inserts an entry, evicting LRU victims past the byte budget.
// Returns false when the key is already present (concurrent runs over
// shared subtrees race benignly) or the entry alone exceeds the budget.
func (c *SubtreeCache) store(ent *subtreeEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[ent.key]; ok {
		return false
	}
	if ent.bytes > c.maxBytes {
		return false
	}
	c.entries[ent.key] = c.lru.PushFront(ent)
	c.bytes += ent.bytes
	c.stores++
	for c.bytes > c.maxBytes {
		el := c.lru.Back()
		victim := el.Value.(*subtreeEntry)
		c.lru.Remove(el)
		delete(c.entries, victim.key)
		c.bytes -= victim.bytes
		c.evictions++
	}
	return true
}

// fpWriter accumulates fingerprint input bytes into a reusable buffer.
type fpWriter struct{ buf []byte }

func (w *fpWriter) reset()         { w.buf = w.buf[:0] }
func (w *fpWriter) byte(b byte)    { w.buf = append(w.buf, b) }
func (w *fpWriter) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *fpWriter) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *fpWriter) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *fpWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }

func (w *fpWriter) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

// configFingerprint hashes every run parameter that can influence a
// subtree frontier: the pruning rule and its thresholds, the candidate
// budget (cache hits skip intra-subtree budget checks, so entries must
// never cross budgets), the buffer and wire libraries, the tree's default
// wire parasitics, and the variation model instance token. Root-only
// parameters (SelectQuantile, DriverR) and value-neutral ones (Context,
// Parallelism) are deliberately excluded to maximize hit rates.
func configFingerprint(tree *rctree.Tree, opts *Options) subtreeKey {
	var w fpWriter
	w.bytes([]byte("vabuf-subtree-v1"))
	tok := uint64(0)
	if opts.Model != nil {
		tok = opts.Model.Token()
	}
	w.u64(tok)
	w.byte(byte(opts.Rule))
	w.f64(opts.PbarL)
	w.f64(opts.PbarT)
	w.f64(opts.FourP.AlphaL)
	w.f64(opts.FourP.AlphaU)
	w.f64(opts.FourP.BetaL)
	w.f64(opts.FourP.BetaU)
	w.u64(uint64(opts.MaxCandidates))
	w.f64(tree.Wire.R)
	w.f64(tree.Wire.C)
	w.u32(uint32(len(opts.Library)))
	for _, b := range opts.Library {
		w.f64(b.Cb0)
		w.f64(b.Tb0)
		w.f64(b.Rb)
		w.f64(b.MaxLoad)
		w.bool(b.Inverting)
	}
	w.u32(uint32(len(opts.WireLibrary)))
	for _, wc := range opts.WireLibrary {
		w.f64(wc.Params.R)
		w.f64(wc.Params.C)
	}
	return sha256.Sum256(w.buf)
}

// subtreeFingerprints computes, in one post-order pass, the canonical
// fingerprint and node count of every subtree. A node's key covers the
// config fingerprint, its own DP-relevant fields — kind, BufferOK, sink
// CapLoad/RAT, and (only under a variation model, whose lazily allocated
// random sources are keyed by node ID and whose spatial weights depend on
// position) the node ID and location — plus, per child in order, the
// child's edge wire length and subtree key.
func subtreeFingerprints(tree *rctree.Tree, opts *Options) ([]subtreeKey, []int32) {
	cfg := configFingerprint(tree, opts)
	fps := make([]subtreeKey, tree.Len())
	size := make([]int32, tree.Len())
	hasModel := opts.Model != nil
	var w fpWriter
	for _, id := range tree.PostOrder() {
		n := tree.Node(id)
		w.reset()
		w.bytes(cfg[:])
		w.byte(byte(n.Kind))
		w.bool(n.BufferOK)
		if n.Kind == rctree.KindSink {
			w.f64(n.CapLoad)
			w.f64(n.RAT)
		}
		if hasModel && n.BufferOK {
			w.u32(uint32(id))
			w.f64(n.Loc.X)
			w.f64(n.Loc.Y)
		}
		sz := int32(1)
		for _, child := range n.Children {
			w.f64(tree.Node(child).WireLen)
			w.bytes(fps[child][:])
			sz += size[child]
		}
		fps[id] = sha256.Sum256(w.buf)
		size[id] = sz
	}
	return fps, size
}

// storeSubtree detaches the polarity frontiers computed for node id into a
// cache entry: scalars copied, terms deep-copied into a flat private
// backing (worker arenas are pooled and reused by later runs), and every
// candidate's decisions materialized by walking the provenance DAG now.
func (e *engine) storeSubtree(id rctree.NodeID, pl polarityLists) bool {
	ent := &subtreeEntry{key: e.fps[id]}
	bytes := int64(256)
	var scratch candDecisions
	for p := 0; p < 2; p++ {
		f := pl[p]
		n := f.len()
		if n == 0 {
			continue
		}
		cl := &cachedList{
			ln:  slices.Clone(f.ln),
			tn:  slices.Clone(f.tn),
			lt:  make([][]variation.Term, n),
			tt:  make([][]variation.Term, n),
			dec: make([]candDecisions, n),
		}
		if f.sl != nil {
			cl.sl = slices.Clone(f.sl)
			cl.st = slices.Clone(f.st)
		}
		nTerms := 0
		for i := 0; i < n; i++ {
			nTerms += len(f.lt[i]) + len(f.tt[i])
		}
		cl.terms = make([]variation.Term, 0, nTerms)
		detach := func(src []variation.Term) []variation.Term {
			if len(src) == 0 {
				return nil
			}
			a := len(cl.terms)
			cl.terms = append(cl.terms, src...)
			b := len(cl.terms)
			return cl.terms[a:b:b]
		}
		for i := 0; i < n; i++ {
			cl.lt[i] = detach(f.lt[i])
			cl.tt[i] = detach(f.tt[i])
		}
		for i := 0; i < n; i++ {
			scratch.bufs, scratch.wires = scratch.bufs[:0], scratch.wires[:0]
			e.collectDecisions(f.ref[i], &scratch)
			cl.dec[i] = scratch.clone()
			bytes += int64(len(cl.dec[i].bufs)+len(cl.dec[i].wires)) * 8
		}
		bytes += int64(nTerms)*16 + int64(n)*(4*8+4*24+32)
		ent.lists[p] = cl
	}
	ent.bytes = bytes
	return e.cache.store(ent)
}

// restoreCached rebuilds polarity frontiers from a cache entry. Scalar
// arrays are copied (downstream pruning mutates them in place); term
// slices share the entry's immutable backing. Each restored candidate gets
// an opCached provenance record pointing at a replay-table row, so final
// backtracking replays the stored decisions.
func (w *worker) restoreCached(id rctree.NodeID, ent *subtreeEntry) polarityLists {
	var pl polarityLists
	needSig := w.prn.needSigmas()
	for p := 0; p < 2; p++ {
		cl := ent.lists[p]
		if cl == nil {
			continue
		}
		ridx := w.eng.addReplay(cl)
		n := len(cl.ln)
		f := newFrontier(n, needSig)
		f.ln = append(f.ln, cl.ln...)
		f.tn = append(f.tn, cl.tn...)
		if needSig {
			f.sl = append(f.sl, cl.sl...)
			f.st = append(f.st, cl.st...)
		}
		f.lt = append(f.lt, cl.lt...)
		f.tt = append(f.tt, cl.tt...)
		for i := 0; i < n; i++ {
			f.ref = append(f.ref, w.prov.alloc(prov{
				pred: int32(i), pred2: -1, node: id, aux: ridx, op: opCached,
			}))
		}
		pl[p] = f
	}
	return pl
}
