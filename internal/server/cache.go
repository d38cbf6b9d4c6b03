package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"vabuf"
)

// lruCache is a concurrency-safe LRU of build-once slots. A lookup
// reserves a slot under the cache lock, then builds the value outside it
// (guarded by the slot's sync.Once), so an expensive build — benchmark
// generation, variation-grid construction — never blocks unrelated keys
// and never runs twice for concurrent identical requests.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	slots map[string]*list.Element

	hits, misses atomic.Int64
}

type cacheSlot struct {
	key  string
	once sync.Once
	val  any
	err  error
	// ready is set (after once has run) once val/err are safe to read
	// without holding the slot's once — the snapshot writer iterates
	// finished slots while requests may still be building others.
	ready atomic.Bool
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		slots: make(map[string]*list.Element),
	}
}

// do returns the value for key, building it at most once per residency.
// hit reports whether the slot already existed (a returning request). A
// failed build evicts its slot so a later request can retry.
func (c *lruCache) do(key string, build func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	el, ok := c.slots[key]
	if ok {
		c.order.MoveToFront(el)
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		el = c.order.PushFront(&cacheSlot{key: key})
		c.slots[key] = el
		if c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.slots, oldest.Value.(*cacheSlot).key)
		}
	}
	slot := el.Value.(*cacheSlot)
	c.mu.Unlock()

	slot.once.Do(func() { slot.val, slot.err = build() })
	slot.ready.Store(true)
	if slot.err != nil {
		c.mu.Lock()
		if cur, ok := c.slots[key]; ok && cur == el {
			c.order.Remove(el)
			delete(c.slots, key)
		}
		c.mu.Unlock()
		return nil, ok, slot.err
	}
	return slot.val, ok, nil
}

// add inserts an already-built value — the snapshot-restore path. It
// counts as neither hit nor miss; a later do() for the same key reports
// a hit, which is exactly what a warm restart should look like.
func (c *lruCache) add(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.slots[key]; ok {
		return
	}
	slot := &cacheSlot{key: key, val: val}
	slot.once.Do(func() {}) // consume the once so do() never rebuilds
	slot.ready.Store(true)
	c.slots[key] = c.order.PushFront(slot)
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.slots, oldest.Value.(*cacheSlot).key)
	}
}

// get returns the finished value for key, counting a hit or miss and
// refreshing recency — the read path of the result cache, whose values
// are stored with add (never built in place like do's slots).
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	el, ok := c.slots[key]
	if ok {
		slot := el.Value.(*cacheSlot)
		if slot.ready.Load() && slot.err == nil {
			c.order.MoveToFront(el)
			c.hits.Add(1)
			c.mu.Unlock()
			return slot.val, true
		}
	}
	c.misses.Add(1)
	c.mu.Unlock()
	return nil, false
}

// peek returns the finished value for key without counting a hit or
// reordering the LRU. It reports false for absent or still-building slots.
func (c *lruCache) peek(key string) (any, bool) {
	c.mu.Lock()
	el, ok := c.slots[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	slot := el.Value.(*cacheSlot)
	if !slot.ready.Load() || slot.err != nil {
		return nil, false
	}
	return slot.val, true
}

// cacheEntry is one finished cache slot, as seen by the snapshot writer.
type cacheEntry struct {
	key string
	val any
}

// entries returns the finished slots in LRU order (most recent first).
// Slots still building — or whose build failed — are skipped: the
// snapshot only ever persists values a request actually received.
func (c *lruCache) entries() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		slot := el.Value.(*cacheSlot)
		if !slot.ready.Load() || slot.err != nil {
			continue
		}
		out = append(out, cacheEntry{key: slot.key, val: slot.val})
	}
	return out
}

// stats returns the cumulative hit/miss counters and the current size.
func (c *lruCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	size = c.order.Len()
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), size
}

// flight is one in-flight computation of the request-coalescing
// registry. The leader publishes its outcome through finish; waiters
// block on done and then read status/val without further locking.
type flight struct {
	done    chan struct{}
	waiters int // requests coalesced onto this flight (excluding the leader)
	status  int // HTTP status of the leader's outcome
	val     any // response body when status is 200
}

// flightGroup is a singleflight registry keyed by result fingerprint:
// while a request with some fingerprint is running, concurrent
// identical requests join its flight instead of submitting their own
// pool job — they consume no worker slot and adopt the leader's
// successful response verbatim. Only successes are adopted: when a
// leader fails (or its client walks away mid-run), each waiter retries
// the full path itself, so an error — retryable by nature — is never
// fanned out beyond the requests that truly shared the failing run.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// join enters the flight for key, creating it when absent. The creator
// is the leader (must call finish exactly once); everyone else is a
// waiter and must block on f.done.
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	if f, ok := g.flights[key]; ok {
		f.waiters++
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// finish publishes the leader's outcome and retires the flight, so a
// request arriving after this instant starts a fresh one.
func (g *flightGroup) finish(key string, f *flight, status int, val any) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	f.status, f.val = status, val
	close(f.done)
}

// waiters reports the current waiter count of key's flight (0 when no
// flight is active) — test and metrics introspection only.
func (g *flightGroup) waitersOf(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f.waiters
	}
	return 0
}

// inflight reports the number of active flights.
func (g *flightGroup) inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}

// modelEntry is one cached variation model. It is filed under its
// tree's site layout (modelCacheKey), so every tree with that layout — an
// ECO edit of a sink's load or RAT keeps it — shares one model, and with
// it the model token the subtree cache keys on. buildModelEntry resolves
// every site's deviation before the entry is published, which leaves the
// model read-only: runs sharing it proceed concurrently, with no lock.
//
// The build parameters ride along so the snapshot writer can persist the
// recipe instead of the model itself — models rebuild deterministically
// from (tree, algo, budget, heterogeneous) on restore. treeKey names the
// tree of the latest request the model served, so the recipe stays
// resolvable after the tree that first built it leaves the tree LRU.
type modelEntry struct {
	model *vabuf.VariationModel

	treeKey atomic.Pointer[string] // tree-cache key of the latest user
	algo    string
	budget  float64
	hetero  bool
}
