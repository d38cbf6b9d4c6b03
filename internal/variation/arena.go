package variation

import (
	"math"
	"sync"

	"vabuf/internal/stats"
)

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
// Terms from the Arena's current slab instead of the heap.
//
// Ownership rules:
//
//   - Forms built from an Arena are valid only until Release is called.
//   - Release returns the standard-size slabs to a shared pool for reuse;
//     call it only when no Form referencing the Arena can be used again.
//     Any Form that outlives the run must be detached with Clone first.
//   - The zero number of retained slabs is restored by Release; an Arena
//     must not be used after Release.
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
// capacity n. Appends within that capacity stay inside the slab.
func (a *Arena) take(n int) []Term {
	if n == 0 {
		return nil
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

// giveBack returns the unused tail of the most recent take. Valid only
// immediately after the take, before any further allocation.
func (a *Arena) giveBack(n int) {
	a.off -= n
	a.terms -= int64(n)
}

// trim gives back the unused capacity of s, which must be the most recent
// take, and returns s unchanged.
func (a *Arena) trim(s []Term) []Term {
	a.giveBack(cap(s) - len(s))
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

// AXPYIn is AXPY with the result terms borrowed from the arena. A nil
// arena falls back to the heap-allocating AXPY. The numerical result is
// bit-identical to AXPY.
func (f Form) AXPYIn(a *Arena, s float64, g Form) Form {
	if a == nil {
		return f.AXPY(s, g)
	}
	if s == 0 || len(g.Terms) == 0 {
		return Form{Nominal: f.Nominal + s*g.Nominal, Terms: f.Terms}
	}
	terms := a.take(len(f.Terms) + len(g.Terms))
	i, j := 0, 0
	// Fast path: forms produced by the same DP node usually carry the
	// same source set, so the two sorted lists align index-for-index.
	// Walking the aligned prefix with one predictable branch per term
	// computes exactly the shared-ID expression of the merge below.
	for i < len(f.Terms) && i < len(g.Terms) && f.Terms[i].ID == g.Terms[i].ID {
		if c := f.Terms[i].Coef + s*g.Terms[i].Coef; c != 0 {
			terms = append(terms, Term{f.Terms[i].ID, c})
		}
		i++
	}
	j = i
	for i < len(f.Terms) && j < len(g.Terms) {
		x, y := f.Terms[i], g.Terms[j]
		switch {
		case x.ID < y.ID:
			terms = append(terms, x)
			i++
		case x.ID > y.ID:
			terms = append(terms, Term{y.ID, s * y.Coef})
			j++
		default:
			if c := x.Coef + s*y.Coef; c != 0 {
				terms = append(terms, Term{x.ID, c})
			}
			i++
			j++
		}
	}
	terms = append(terms, f.Terms[i:]...)
	for ; j < len(g.Terms); j++ {
		terms = append(terms, Term{g.Terms[j].ID, s * g.Terms[j].Coef})
	}
	terms = a.trim(terms)
	return Form{Nominal: f.Nominal + s*g.Nominal, Terms: terms}
}

// AddIn returns f + g with arena-backed terms.
func (f Form) AddIn(a *Arena, g Form) Form { return f.AXPYIn(a, 1, g) }

// SubIn returns f - g with arena-backed terms.
func (f Form) SubIn(a *Arena, g Form) Form { return f.AXPYIn(a, -1, g) }

// ScaleIn returns s·f with arena-backed terms.
func (f Form) ScaleIn(a *Arena, s float64) Form {
	if a == nil {
		return f.Scale(s)
	}
	if s == 0 {
		return Form{}
	}
	terms := a.take(len(f.Terms))
	for _, t := range f.Terms {
		terms = append(terms, Term{t.ID, s * t.Coef})
	}
	return Form{Nominal: s * f.Nominal, Terms: terms}
}

// blendIn computes tf·f + tg·g in one merge pass, replicating the exact
// floating-point behaviour of f.Scale(tf).Add(g.Scale(tg)): a zero blend
// weight drops that side entirely (Scale(0) returns the empty form), and
// only coefficients that cancel on shared sources are dropped. The result
// terms always come from the arena (never aliased), so callers may rescale
// them in place.
func blendIn(a *Arena, tf float64, f Form, tg float64, g Form) Form {
	fts, gts := f.Terms, g.Terms
	if tf == 0 {
		fts = nil
	}
	if tg == 0 {
		gts = nil
	}
	terms := a.take(len(fts) + len(gts))
	i, j := 0, 0
	// Aligned-prefix fast path; see AXPYIn.
	for i < len(fts) && i < len(gts) && fts[i].ID == gts[i].ID {
		if c := (tf * fts[i].Coef) + (tg * gts[i].Coef); c != 0 {
			terms = append(terms, Term{fts[i].ID, c})
		}
		i++
	}
	j = i
	for i < len(fts) && j < len(gts) {
		x, y := fts[i], gts[j]
		switch {
		case x.ID < y.ID:
			terms = append(terms, Term{x.ID, tf * x.Coef})
			i++
		case x.ID > y.ID:
			terms = append(terms, Term{y.ID, tg * y.Coef})
			j++
		default:
			if c := (tf * x.Coef) + (tg * y.Coef); c != 0 {
				terms = append(terms, Term{x.ID, c})
			}
			i++
			j++
		}
	}
	for ; i < len(fts); i++ {
		terms = append(terms, Term{fts[i].ID, tf * fts[i].Coef})
	}
	for ; j < len(gts); j++ {
		terms = append(terms, Term{gts[j].ID, tg * gts[j].Coef})
	}
	terms = a.trim(terms)
	nominal := 0.0
	if tf != 0 {
		nominal += tf * f.Nominal
	}
	if tg != 0 {
		nominal += tg * g.Nominal
	}
	return Form{Nominal: nominal, Terms: terms}
}

// varDiffOrdered accumulates Var(f - g) walking both sorted term lists in
// merged ID order — the same coefficient expressions and summation order
// as f.Sub(g).Var(space), with no allocation.
func varDiffOrdered(f, g Form, space *Space) float64 {
	v := 0.0
	acc := func(id SourceID, c float64) {
		if c != 0 {
			s := space.Sigma(id)
			v += c * c * s * s
		}
	}
	i, j := 0, 0
	// Aligned-prefix fast path; see AXPYIn.
	for i < len(f.Terms) && i < len(g.Terms) && f.Terms[i].ID == g.Terms[i].ID {
		acc(f.Terms[i].ID, f.Terms[i].Coef+-1*g.Terms[i].Coef)
		i++
	}
	j = i
	for i < len(f.Terms) && j < len(g.Terms) {
		x, y := f.Terms[i], g.Terms[j]
		switch {
		case x.ID < y.ID:
			acc(x.ID, x.Coef)
			i++
		case x.ID > y.ID:
			acc(y.ID, -1*y.Coef)
			j++
		default:
			acc(x.ID, x.Coef+-1*y.Coef)
			i++
			j++
		}
	}
	for ; i < len(f.Terms); i++ {
		acc(f.Terms[i].ID, f.Terms[i].Coef)
	}
	for ; j < len(g.Terms); j++ {
		acc(g.Terms[j].ID, -1*g.Terms[j].Coef)
	}
	return v
}

// MinIn is Min with every intermediate and the result borrowed from the
// arena. A nil arena falls back to Min. The numerical result is
// bit-identical to Min.
func MinIn(a *Arena, f, g Form, space *Space) MinResult {
	if a == nil {
		return Min(f, g, space)
	}
	sd := math.Sqrt(varDiffOrdered(f, g, space))
	if sd == 0 {
		// The difference is deterministic: min is exactly one of the inputs.
		m := stats.MinMoments{SigmaDiff: 0}
		if f.Nominal <= g.Nominal {
			if f.Nominal == g.Nominal {
				m.Tightness = 0.5
			} else {
				m.Tightness = 1
			}
			m.Mean = f.Nominal
			m.Var = f.Var(space)
			return MinResult{Form: f, Moments: m}
		}
		m.Tightness = 0
		m.Mean = g.Nominal
		m.Var = g.Var(space)
		return MinResult{Form: g, Moments: m}
	}
	sf := f.Sigma(space)
	sg := g.Sigma(space)
	rho := corrFrom(f, g, sf, sg, space)
	mom := stats.MinNormals(f.Nominal, sf, g.Nominal, sg, rho)
	t := mom.Tightness
	blended := blendIn(a, t, f, 1-t, g)
	blended.Nominal = mom.Mean
	if vb := blended.Var(space); vb > 0 && mom.Var > 0 {
		s := math.Sqrt(mom.Var / vb)
		for i := range blended.Terms {
			blended.Terms[i].Coef *= s
		}
	}
	return MinResult{Form: blended, Moments: mom}
}
