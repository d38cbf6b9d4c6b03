package core

import (
	"runtime"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/variation"
)

// retainedBytes returns the live heap after two collections (the second
// empties sync.Pool victim caches, so pooled DP scratch does not count).
func retainedBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSubtreeCacheChargeMatchesHeap fills an unbounded cache from one
// insert per rule and compares the bytes the cache charges with the heap
// it actually keeps alive, measured as the live heap released when the
// cache is dropped. Deterministic and pbar 0.5 lists hold two float64
// columns per candidate, pbar 0.9 lists five; the charge must be within
// chargeTolerance of the measurement either way. The charge leaves out
// the allocator's rounding of each allocation up to its size class,
// which puts it 4–7% under the heap on these nets; the former flat
// four-column charge read 11% over on the deterministic one.
func TestSubtreeCacheChargeMatchesHeap(t *testing.T) {
	const chargeTolerance = 0.10
	tr, err := benchgen.Random(benchgen.Spec{Sinks: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		model bool
		pbar  float64
	}{
		{"deterministic", false, 0},
		{"WID pbar 0.5", true, 0.5},
		{"WID pbar 0.9", true, 0.9},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Library: device.DefaultLibrary(), Parallelism: 1, PbarL: c.pbar, PbarT: c.pbar}
			if c.model {
				m, err := variation.NewModel(variation.DefaultConfig(tr.BoundingBox().Expand(100)))
				if err != nil {
					t.Fatal(err)
				}
				opts.Model = m
			}
			// An uncached run first resolves the model's sites, so the
			// measured run adds nothing but the cache's entries.
			if _, err := Insert(tr, opts); err != nil {
				t.Fatal(err)
			}
			cache := NewSubtreeCache(1 << 40)
			opts.SubtreeCache = cache
			if _, err := Insert(tr, opts); err != nil {
				t.Fatal(err)
			}
			opts.SubtreeCache = nil
			st := cache.Stats()
			held := retainedBytes()
			runtime.KeepAlive(cache)
			measured := held - retainedBytes()
			if st.Entries == 0 || measured <= 0 {
				t.Fatalf("nothing cached: %d entries, %d bytes measured", st.Entries, measured)
			}
			ratio := float64(st.Bytes) / float64(measured)
			t.Logf("%d entries: charged %d B, heap %d B (ratio %.3f)", st.Entries, st.Bytes, measured, ratio)
			if ratio < 1-chargeTolerance || ratio > 1+chargeTolerance {
				t.Errorf("charged %d B for %d B of heap (ratio %.3f, tolerance %.2f)",
					st.Bytes, measured, ratio, chargeTolerance)
			}
		})
	}
}
