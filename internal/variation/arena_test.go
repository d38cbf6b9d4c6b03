package variation

import (
	"math"
	"math/rand/v2"
	"testing"
)

// formsBitEqual reports whether two forms have the same nominal and the
// same terms, coefficients compared bit for bit.
func formsBitEqual(a, b Form) bool {
	if math.Float64bits(a.Nominal) != math.Float64bits(b.Nominal) || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i].ID != b.Terms[i].ID ||
			math.Float64bits(a.Terms[i].Coef) != math.Float64bits(b.Terms[i].Coef) {
			return false
		}
	}
	return true
}

// momentsBitEqual reports whether two MIN moment sets are equal bit for bit.
func momentsBitEqual(a, b MinResult) bool {
	am, bm := a.Moments, b.Moments
	return math.Float64bits(am.Mean) == math.Float64bits(bm.Mean) &&
		math.Float64bits(am.Var) == math.Float64bits(bm.Var) &&
		math.Float64bits(am.Tightness) == math.Float64bits(bm.Tightness) &&
		math.Float64bits(am.SigmaDiff) == math.Float64bits(bm.SigmaDiff)
}

// mirrorForms draws a space and two forms over it from seed. shape picks
// how their term lists meet: 0 aligned (one source set), 1 partly aligned
// (a shared leading run, then each its own sources), 2 disjoint, 3 g
// repeats some of f's terms exactly, so f − g cancels them, and 4 g is f
// with its nominal moved (a deterministic difference). gap moves g's
// nominal; a gap far beyond the forms' sigmas drives the MIN's tightness
// to exactly 0 or 1.
func mirrorForms(seed uint64, shape uint8, gap float64) (f, g Form, space *Space) {
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	space = NewSpace()
	n := 1 + r.IntN(40)
	for range 2 * n {
		sigma := r.Float64() * 2
		if r.IntN(8) == 0 {
			sigma = 0
		}
		space.Add(ClassRandom, sigma)
	}
	coef := func() float64 {
		if c := r.NormFloat64() * math.Pow(10, float64(r.IntN(5)-2)); c != 0 {
			return c
		}
		return 1
	}
	pick := func(ids []int) []Term {
		ts := make([]Term, 0, len(ids))
		for _, id := range ids {
			ts = append(ts, Term{ID: SourceID(id), Coef: coef()})
		}
		return ts
	}
	var fIDs, gIDs []int
	switch shape % 5 {
	case 0, 3, 4:
		for id := range n {
			if r.IntN(2) == 0 {
				fIDs = append(fIDs, id)
			}
		}
		gIDs = fIDs
	case 1:
		lead := r.IntN(n + 1)
		for id := range lead {
			fIDs = append(fIDs, id)
			gIDs = append(gIDs, id)
		}
		for id := lead; id < 2*n; id++ {
			switch r.IntN(3) {
			case 0:
				fIDs = append(fIDs, id)
			case 1:
				gIDs = append(gIDs, id)
			}
		}
	default:
		for id := range 2 * n {
			if id%2 == 0 {
				fIDs = append(fIDs, id)
			} else {
				gIDs = append(gIDs, id)
			}
		}
	}
	f = Form{Nominal: r.NormFloat64() * 100, Terms: pick(fIDs)}
	g = Form{Nominal: f.Nominal + gap, Terms: pick(gIDs)}
	switch shape % 5 {
	case 3:
		for i := range g.Terms {
			if r.IntN(2) == 0 {
				g.Terms[i].Coef = f.Terms[i].Coef
			}
		}
	case 4:
		copy(g.Terms, f.Terms)
	}
	return f, g, space
}

// checkArenaMirrors runs every form operation with an arena and on the
// heap (a nil arena) on the same inputs and requires equal results bit for
// bit: nominal, every term, and the MIN's moments. The arena results are
// all taken first and compared afterwards, so one result overwriting
// another's terms in the arena shows; the inputs must come out unchanged.
// Max must equal -Min(-f, -g) built from negated copies.
func checkArenaMirrors(t *testing.T, seed uint64, shape uint8, s, gap float64) {
	t.Helper()
	f, g, space := mirrorForms(seed, shape, gap)
	f0, g0 := f.Clone(), g.Clone()
	type pair struct {
		name string
		heap func() Form
		got  func(*Arena) Form
	}
	ops := []pair{
		{"AXPY", func() Form { return f.AXPY(s, g) }, func(a *Arena) Form { return f.AXPYIn(a, s, g) }},
		{"AXPY g,f", func() Form { return g.AXPY(s, f) }, func(a *Arena) Form { return g.AXPYIn(a, s, f) }},
		{"Add", func() Form { return f.Add(g) }, func(a *Arena) Form { return f.AddIn(a, g) }},
		{"Sub", func() Form { return f.Sub(g) }, func(a *Arena) Form { return f.SubIn(a, g) }},
		{"Sub f,f", func() Form { return f.Sub(f) }, func(a *Arena) Form { return f.SubIn(a, f) }},
		{"Scale", func() Form { return f.Scale(s) }, func(a *Arena) Form { return f.ScaleIn(a, s) }},
		{"Scale 0", func() Form { return g.Scale(0) }, func(a *Arena) Form { return g.ScaleIn(a, 0) }},
	}
	mins := [][2]Form{{f, g}, {g, f}, {f, f}}
	a := NewArena()
	defer a.Release()
	got := make([]Form, len(ops))
	for i, op := range ops {
		got[i] = op.got(a)
	}
	gotMin := make([]MinResult, len(mins))
	for i, in := range mins {
		gotMin[i] = MinIn(a, in[0], in[1], space)
	}
	for i, op := range ops {
		if want := op.heap(); !formsBitEqual(got[i], want) {
			t.Fatalf("%s (shape %d, s %v): arena %v, heap %v", op.name, shape%5, s, got[i], want)
		}
	}
	for i, in := range mins {
		if want := Min(in[0], in[1], space); !minBitEqual(gotMin[i], want) {
			t.Fatalf("Min #%d (shape %d, gap %v): arena %v %+v, heap %v %+v",
				i, shape%5, gap, gotMin[i].Form, gotMin[i].Moments, want.Form, want.Moments)
		}
		if got, want := Max(in[0], in[1], space), negatedMin(in[0], in[1], space); !minBitEqual(got, want) {
			t.Fatalf("Max #%d (shape %d, gap %v): %v %+v, -Min(-f, -g) %v %+v",
				i, shape%5, gap, got.Form, got.Moments, want.Form, want.Moments)
		}
	}
	if !formsBitEqual(f, f0) || !formsBitEqual(g, g0) {
		t.Fatalf("an operation changed its inputs (shape %d)", shape%5)
	}
}

// minBitEqual reports whether two MIN/MAX results are equal bit for bit,
// form and moments.
func minBitEqual(a, b MinResult) bool { return formsBitEqual(a.Form, b.Form) && momentsBitEqual(a, b) }

// negatedMin is max(f, g) = -min(-f, -g) built from negated copies of the
// inputs and of the MIN's form.
func negatedMin(f, g Form, space *Space) MinResult {
	res := Min(f.Scale(-1), g.Scale(-1), space)
	res.Form = res.Form.Scale(-1)
	res.Moments.Mean = -res.Moments.Mean
	return res
}

// TestArenaMirrorsMatchHeapOps runs the arena check over every shape,
// scale signs, zero scale, and gaps that leave the MIN's tightness
// strictly inside (0, 1), at exactly 0 or 1, and at a deterministic tie.
func TestArenaMirrorsMatchHeapOps(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		for shape := uint8(0); shape < 5; shape++ {
			for _, c := range []struct{ s, gap float64 }{
				{1, 0}, {-1, 0.5}, {0, -3}, {-0.37, 1e9}, {2.5, -1e9},
			} {
				checkArenaMirrors(t, seed, shape, c.s, c.gap)
			}
		}
	}
}

// TestArenaMirrorsTightnessEdges pins that the seeds above reach the MIN
// edge cases the arena and heap runs must agree on: a blended result at
// tightness exactly 0 and 1, and the deterministic difference.
func TestArenaMirrorsTightnessEdges(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(0); seed < 50; seed++ {
		for _, gap := range []float64{1e9, -1e9} {
			f, g, space := mirrorForms(seed, 0, gap)
			if m := Min(f, g, space).Moments; m.SigmaDiff > 0 && (m.Tightness == 0 || m.Tightness == 1) {
				seen["saturated"] = true
			}
		}
		f, g, space := mirrorForms(seed, 4, 0.5)
		if Min(f, g, space).Moments.SigmaDiff == 0 {
			seen["deterministic"] = true
		}
	}
	for _, k := range []string{"saturated", "deterministic"} {
		if !seen[k] {
			t.Errorf("no seed reached the %s MIN case", k)
		}
	}
}

// FuzzArenaMirrors: AXPYIn, AddIn, SubIn, ScaleIn and MinIn with an arena
// equal AXPY, Add, Sub, Scale and Min on the heap bit for bit, and Max
// equals -Min(-f, -g), on fuzzer-chosen forms, scales and nominal gaps.
func FuzzArenaMirrors(f *testing.F) {
	f.Add(uint64(1), uint8(0), 1.0, 0.0)
	f.Add(uint64(2), uint8(1), -1.0, 0.25)
	f.Add(uint64(3), uint8(2), 0.5, -2.0)
	f.Add(uint64(4), uint8(3), -1.0, 1e-300)
	f.Add(uint64(5), uint8(4), 0.0, 3.0)
	f.Add(uint64(6), uint8(0), -0.37, 1e9)
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, s, gap float64) {
		if math.IsNaN(s) || math.IsInf(s, 0) || math.IsNaN(gap) || math.IsInf(gap, 0) {
			t.Skip("finite inputs only")
		}
		checkArenaMirrors(t, seed, shape, s, gap)
	})
}
