package core

import (
	"math"
	"reflect"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// assertSameSolution compares the result fields the cache promises to
// reproduce exactly. Work counters (Generated, Pruned, ...) are
// deliberately excluded: cached runs report only the work actually done.
func assertSameSolution(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Errorf("%s: assignments differ (%d vs %d buffers)",
			label, len(got.Assignment), len(want.Assignment))
	}
	if !reflect.DeepEqual(got.WireAssignment, want.WireAssignment) {
		t.Errorf("%s: wire assignments differ", label)
	}
	if math.Float64bits(got.RAT.Nominal) != math.Float64bits(want.RAT.Nominal) ||
		!reflect.DeepEqual(got.RAT.Terms, want.RAT.Terms) {
		t.Errorf("%s: RAT differs: %v vs %v", label, got.RAT.Nominal, want.RAT.Nominal)
	}
	if math.Float64bits(got.Sigma) != math.Float64bits(want.Sigma) ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Errorf("%s: sigma/objective (%v, %v) != (%v, %v)",
			label, got.Sigma, got.Objective, want.Sigma, want.Objective)
	}
	if got.RootCandidates != want.RootCandidates {
		t.Errorf("%s: root candidates %d != %d", label, got.RootCandidates, want.RootCandidates)
	}
}

func subtreeTestTree(t *testing.T) (*rctree.Tree, *variation.Model) {
	t.Helper()
	tr, err := benchgen.Build("r1")
	if err != nil {
		t.Fatal(err)
	}
	model, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	return tr, model
}

// TestSubtreeCacheWarmIdentical: a cold cached run matches the uncached
// run exactly, and a warm rerun (full-tree hit) matches again.
func TestSubtreeCacheWarmIdentical(t *testing.T) {
	tr, model := subtreeTestTree(t)
	base := Options{Library: device.DefaultLibrary(), Model: model, Parallelism: 1}
	want, err := Insert(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSubtreeCache(0)
	cached := base
	cached.SubtreeCache = cache
	cold, err := Insert(tr, cached)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "cold", cold, want)
	if cold.Stats.SubtreeHits != 0 || cold.Stats.SubtreeStores == 0 {
		t.Errorf("cold run: hits %d stores %d, want 0 hits and > 0 stores",
			cold.Stats.SubtreeHits, cold.Stats.SubtreeStores)
	}
	// The cold run does the same DP work as the uncached run.
	if cold.Stats.Generated != want.Stats.Generated || cold.Stats.Pruned != want.Stats.Pruned {
		t.Errorf("cold run work differs: gen %d/%d pruned %d/%d",
			cold.Stats.Generated, want.Stats.Generated, cold.Stats.Pruned, want.Stats.Pruned)
	}
	warm, err := Insert(tr, cached)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "warm", warm, want)
	if warm.Stats.SubtreeHits == 0 {
		t.Error("warm rerun recorded no subtree hits")
	}
	if warm.Stats.Generated >= want.Stats.Generated {
		t.Errorf("warm rerun generated %d candidates, uncached %d — no work saved",
			warm.Stats.Generated, want.Stats.Generated)
	}
	cs := cache.Stats()
	if cs.Entries == 0 || cs.Bytes <= 0 || cs.Bytes > cs.MaxBytes {
		t.Errorf("cache stats implausible: %+v", cs)
	}
}

// TestSubtreeCacheMutatedBranch: after mutating one sink, a warm run must
// equal the uncached run on the mutated tree while reusing every untouched
// subtree.
func TestSubtreeCacheMutatedBranch(t *testing.T) {
	tr, model := subtreeTestTree(t)
	base := Options{Library: device.DefaultLibrary(), Model: model, Parallelism: 1}
	cache := NewSubtreeCache(0)
	cached := base
	cached.SubtreeCache = cache
	if _, err := Insert(tr, cached); err != nil {
		t.Fatal(err)
	}
	// Mutate one sink's RAT.
	var sink rctree.NodeID = -1
	for i := range tr.Nodes {
		if tr.Nodes[i].Kind == rctree.KindSink {
			sink = tr.Nodes[i].ID
		}
	}
	tr.Nodes[sink].RAT -= 40
	want, err := Insert(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Insert(tr, cached)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, "mutated", warm, want)
	if warm.Stats.SubtreeHits == 0 {
		t.Error("mutated-branch rerun reused no subtrees")
	}
	if warm.Stats.SubtreeMisses == 0 {
		t.Error("mutated-branch rerun missed nowhere — the mutation was not seen")
	}
	if warm.Stats.Generated >= want.Stats.Generated {
		t.Errorf("mutated-branch rerun generated %d candidates, uncached %d — no work saved",
			warm.Stats.Generated, want.Stats.Generated)
	}
}

// TestSubtreeCacheConfigIsolation: entries stored under one configuration
// must never serve a run with different pruning parameters.
func TestSubtreeCacheConfigIsolation(t *testing.T) {
	tr, model := subtreeTestTree(t)
	cache := NewSubtreeCache(0)
	lib := device.DefaultLibrary()
	a := Options{Library: lib, Model: model, Parallelism: 1, SubtreeCache: cache}
	if _, err := Insert(tr, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.PbarL, b.PbarT = 0.9, 0.9
	want, err := Insert(tr, Options{
		Library: lib, Model: model, Parallelism: 1, PbarL: 0.9, PbarT: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Insert(tr, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SubtreeHits != 0 {
		t.Errorf("pbar 0.9 run hit %d entries stored under pbar 0.5", got.Stats.SubtreeHits)
	}
	assertSameSolution(t, "cross-config", got, want)
	// A second model instance must also be isolated, even on the same tree.
	model2, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
	if err != nil {
		t.Fatal(err)
	}
	c := a
	c.Model = model2
	got2, err := Insert(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Stats.SubtreeHits != 0 {
		t.Errorf("second model instance hit %d entries from the first", got2.Stats.SubtreeHits)
	}
}

// TestSubtreeCacheEviction pins the LRU byte-budget mechanics on synthetic
// entries.
func TestSubtreeCacheEviction(t *testing.T) {
	c := NewSubtreeCache(1000)
	mk := func(tag byte, bytes int64) *subtreeEntry {
		var key subtreeKey
		key[0] = tag
		return &subtreeEntry{key: key, bytes: bytes}
	}
	if !c.store(mk(1, 400)) || !c.store(mk(2, 400)) {
		t.Fatal("stores under budget rejected")
	}
	if c.store(mk(1, 100)) {
		t.Error("duplicate key stored")
	}
	if c.store(mk(3, 2000)) {
		t.Error("entry exceeding the whole budget stored")
	}
	// Touch entry 1 so entry 2 is the LRU victim.
	if c.lookup(mk(1, 0).key) == nil {
		t.Fatal("entry 1 vanished")
	}
	if !c.store(mk(4, 400)) {
		t.Fatal("third store rejected")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 800 {
		t.Errorf("after eviction: %+v, want 1 eviction, 2 entries, 800 bytes", s)
	}
	if c.lookup(mk(2, 0).key) != nil {
		t.Error("LRU victim still resident")
	}
	if c.lookup(mk(1, 0).key) == nil || c.lookup(mk(4, 0).key) == nil {
		t.Error("recently used entries evicted")
	}
}

// TestSubtreeCacheParallel: the cache composes with the parallel engine and
// still yields identical results.
func TestSubtreeCacheParallel(t *testing.T) {
	tr, model := subtreeTestTree(t)
	base := Options{Library: device.DefaultLibrary(), Model: model, Parallelism: 1}
	want, err := Insert(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSubtreeCache(0)
	par := base
	par.Parallelism = 4
	par.SubtreeCache = cache
	for i := 0; i < 3; i++ {
		got, err := Insert(tr, par)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSolution(t, "parallel-cached", got, want)
	}
	if cache.Stats().Hits == 0 {
		t.Error("repeated parallel runs never hit the cache")
	}
}
