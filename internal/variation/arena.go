package variation

import "sync"

// arenaClasses are the slab size classes in terms. An arena grows
// geometrically through the classes: the first slab is tiny (a handful of
// short forms fit), each subsequent slab takes the next class, and
// long-lived DP workers settle on the max class. Small frontiers therefore
// reserve kilobytes instead of the former fixed 16384-term (~256 KiB)
// worst case, while big runs amortize exactly as before.
var arenaClasses = [...]int{64, 256, 1024, 4096, 16384}

// arenaSlabTerms is the largest slab class; requests beyond it get a
// dedicated, never-pooled slab.
const arenaSlabTerms = 16384

// slabPools recycles standard-size slabs per class across Arenas (and
// therefore across runs). Term contains no pointers, so pooled slabs cost
// the GC nothing while parked.
var slabPools [len(arenaClasses)]sync.Pool

func init() {
	for i := range slabPools {
		sz := arenaClasses[i]
		slabPools[i].New = func() any {
			s := make([]Term, sz)
			return &s
		}
	}
}

// Arena is a slab allocator for the Term storage behind Forms. One Arena
// belongs to exactly one goroutine (no internal locking); every Form built
// through the *In operations (AXPYIn, ScaleIn, MinIn, ...) borrows its
// Terms from the Arena's current slab. A nil *Arena is the heap: the same
// operations then allocate fresh terms, and the heap operations (AXPY,
// Scale, Min, ...) are exactly those calls.
//
// Ownership rules:
//
//   - Forms built from an Arena are valid only until Release is called.
//   - Release returns the standard-size slabs to a shared pool for reuse;
//     call it only when no Form referencing the Arena can be used again.
//     Any Form that outlives the run must be detached with Clone first.
//   - Release leaves the Arena holding no slab; it must not be used
//     afterwards.
type Arena struct {
	slabs []*[]Term
	cur   []Term
	off   int
	terms int64
	bytes int64
	// nextClass indexes arenaClasses for the next slab grab (geometric
	// growth, saturating at the max class).
	nextClass int
}

// NewArena returns an empty arena. The first slab is taken lazily.
func NewArena() *Arena { return &Arena{} }

// take reserves room for n terms and returns a zero-length slice with
// capacity n. Appends within that capacity stay inside the slab. A nil
// arena is the heap.
func (a *Arena) take(n int) []Term {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]Term, 0, n)
	}
	if a.off+n > len(a.cur) {
		if n > arenaSlabTerms {
			// Oversized request: dedicated slab, never pooled.
			s := make([]Term, n)
			a.slabs = append(a.slabs, &s)
			a.cur = s
		} else {
			cls := a.nextClass
			for arenaClasses[cls] < n {
				cls++
			}
			s := slabPools[cls].Get().(*[]Term)
			a.slabs = append(a.slabs, s)
			a.cur = *s
			if cls < len(arenaClasses)-1 {
				a.nextClass = cls + 1
			} else {
				a.nextClass = cls
			}
		}
		a.off = 0
		a.bytes += int64(len(a.cur)) * int64(termBytes)
	}
	s := a.cur[a.off : a.off : a.off+n]
	a.off += n
	a.terms += int64(n)
	return s
}

// trim gives back the unused capacity of s, which must be the most recent
// take, before any further allocation, and returns s unchanged. A nil
// arena (the heap) keeps the capacity.
func (a *Arena) trim(s []Term) []Term {
	if a != nil {
		n := cap(s) - len(s)
		a.off -= n
		a.terms -= int64(n)
	}
	return s
}

// termBytes is sizeof(Term) without importing unsafe.
const termBytes = 4 /* SourceID */ + 4 /* padding */ + 8 /* Coef */

// Terms returns the number of terms handed out since creation.
func (a *Arena) Terms() int64 { return a.terms }

// Bytes returns the total slab bytes reserved by the arena.
func (a *Arena) Bytes() int64 { return a.bytes }

// UsedBytes returns the bytes of terms actually handed out — the live
// occupancy, as opposed to Bytes' reserved slab capacity.
func (a *Arena) UsedBytes() int64 { return a.terms * int64(termBytes) }

// Release parks the standard-size slabs in their class pools and drops the
// oversized ones. The arena must not be used afterwards, and no Form built
// from it may be touched again.
func (a *Arena) Release() {
	for _, s := range a.slabs {
		for i, sz := range arenaClasses {
			if len(*s) == sz {
				slabPools[i].Put(s)
				break
			}
		}
	}
	a.slabs, a.cur, a.off, a.nextClass = nil, nil, 0, 0
}

// Clone detaches a form from any arena by copying its terms to the heap.
func (f Form) Clone() Form {
	if len(f.Terms) == 0 {
		return Form{Nominal: f.Nominal}
	}
	terms := make([]Term, len(f.Terms))
	copy(terms, f.Terms)
	return Form{Nominal: f.Nominal, Terms: terms}
}
