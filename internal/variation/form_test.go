package variation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vabuf/internal/stats"
)

// testSpace builds a space with n unit-normal random sources.
func testSpace(n int) *Space {
	s := NewSpace()
	for i := 0; i < n; i++ {
		s.Add(ClassRandom, 1, "x")
	}
	return s
}

func TestNewFormCanonicalizes(t *testing.T) {
	f := NewForm(1, []Term{{3, 2}, {1, 5}, {3, -2}, {2, 0}})
	if len(f.Terms) != 1 || f.Terms[0].ID != 1 || f.Terms[0].Coef != 5 {
		t.Errorf("canonical form = %+v", f)
	}
	if f.Nominal != 1 {
		t.Errorf("nominal = %g", f.Nominal)
	}
}

func TestConstAndDeterministic(t *testing.T) {
	c := Const(7)
	if !c.IsDeterministic() || c.Mean() != 7 {
		t.Errorf("Const(7) = %+v", c)
	}
	f := NewForm(1, []Term{{0, 2}})
	if f.IsDeterministic() {
		t.Error("form with terms claims deterministic")
	}
}

func TestShiftScale(t *testing.T) {
	f := NewForm(2, []Term{{0, 3}})
	g := f.Shift(5)
	if g.Nominal != 7 || g.Terms[0].Coef != 3 {
		t.Errorf("Shift = %+v", g)
	}
	h := f.Scale(-2)
	if h.Nominal != -4 || h.Terms[0].Coef != -6 {
		t.Errorf("Scale = %+v", h)
	}
	z := f.Scale(0)
	if !z.IsDeterministic() || z.Nominal != 0 {
		t.Errorf("Scale(0) = %+v", z)
	}
}

func TestAXPYMergesSorted(t *testing.T) {
	f := NewForm(1, []Term{{0, 1}, {2, 2}})
	g := NewForm(10, []Term{{1, 3}, {2, -2}, {5, 1}})
	got := f.AXPY(1, g)
	want := NewForm(11, []Term{{0, 1}, {1, 3}, {5, 1}})
	if !formsEqual(got, want) {
		t.Errorf("AXPY = %+v, want %+v", got, want)
	}
	// Terms that cancel exactly disappear (ID 2 above).
	for _, tm := range got.Terms {
		if tm.ID == 2 {
			t.Error("cancelled term survived")
		}
	}
}

func TestAXPYZeroScale(t *testing.T) {
	f := NewForm(1, []Term{{0, 1}})
	g := NewForm(10, []Term{{1, 3}})
	got := f.AXPY(0, g)
	if !formsEqual(got, f) {
		t.Errorf("AXPY(0) changed the form: %+v", got)
	}
}

func formsEqual(a, b Form) bool {
	if a.Nominal != b.Nominal || len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}

func TestFormAlgebraProperties(t *testing.T) {
	// Build small random forms and check linearity identities by sampling.
	space := testSpace(6)
	rng := rand.New(rand.NewSource(17))
	randForm := func() Form {
		terms := make([]Term, 0, 4)
		for id := 0; id < 6; id++ {
			if rng.Float64() < 0.5 {
				terms = append(terms, Term{SourceID(id), rng.NormFloat64()})
			}
		}
		return NewForm(rng.NormFloat64()*10, terms)
	}
	samples := space.Sample(NewDraws(17), 0, nil)
	for trial := 0; trial < 200; trial++ {
		f := randForm()
		g := randForm()
		s := rng.NormFloat64()
		// Eval is linear: (f + s g)(x) == f(x) + s g(x).
		lhs := f.AXPY(s, g).Eval(samples)
		rhs := f.Eval(samples) + s*g.Eval(samples)
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("linearity violated: %g vs %g", lhs, rhs)
		}
		// Sub is AXPY(-1, ·).
		if !formsEqual(f.Sub(g), f.AXPY(-1, g)) {
			t.Fatal("Sub != AXPY(-1)")
		}
		// Var(f - f) = 0.
		if v := f.Sub(f).Var(space); v != 0 {
			t.Fatalf("Var(f-f) = %g", v)
		}
		// Var(f+g) = Var f + 2 Cov + Var g.
		vsum := f.Add(g).Var(space)
		expect := f.Var(space) + 2*Cov(f, g, space) + g.Var(space)
		if math.Abs(vsum-expect) > 1e-9 {
			t.Fatalf("variance bilinearity: %g vs %g", vsum, expect)
		}
	}
}

func TestVarCovCorr(t *testing.T) {
	space := NewSpace()
	a := space.Add(ClassRandom, 2, "a") // sigma 2
	b := space.Add(ClassRandom, 3, "b") // sigma 3
	f := NewForm(0, []Term{{a, 1}, {b, 1}})
	if v := f.Var(space); math.Abs(v-13) > 1e-12 {
		t.Errorf("Var = %g, want 13", v)
	}
	g := NewForm(0, []Term{{a, 2}})
	if c := Cov(f, g, space); math.Abs(c-8) > 1e-12 {
		t.Errorf("Cov = %g, want 8", c)
	}
	// Corr of identical forms is 1; of disjoint forms is 0.
	if r := Corr(f, f, space); math.Abs(r-1) > 1e-12 {
		t.Errorf("self Corr = %g", r)
	}
	h := NewForm(0, []Term{{b, 5}})
	gOnlyA := NewForm(0, []Term{{a, 1}})
	if r := Corr(gOnlyA, h, space); r != 0 {
		t.Errorf("disjoint Corr = %g", r)
	}
	// Deterministic forms have zero correlation by convention.
	if r := Corr(Const(1), f, space); r != 0 {
		t.Errorf("deterministic Corr = %g", r)
	}
}

func TestCorrBoundsProperty(t *testing.T) {
	space := testSpace(8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Form {
			terms := make([]Term, 0, 8)
			for id := 0; id < 8; id++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, Term{SourceID(id), rng.NormFloat64() * 5})
				}
			}
			return NewForm(0, terms)
		}
		a, b := mk(), mk()
		r := Corr(a, b, space)
		return r >= -1 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmaDiffMatchesCovFormula(t *testing.T) {
	space := testSpace(5)
	f := NewForm(3, []Term{{0, 1}, {1, 2}})
	g := NewForm(1, []Term{{1, 2}, {3, -1}})
	direct := SigmaDiff(f, g, space)
	viaCov := math.Sqrt(f.Var(space) - 2*Cov(f, g, space) + g.Var(space))
	if math.Abs(direct-viaCov) > 1e-12 {
		t.Errorf("SigmaDiff %g vs cov formula %g", direct, viaCov)
	}
	// Shared term with equal coefficients cancels entirely.
	h := NewForm(0, []Term{{1, 2}})
	k := NewForm(5, []Term{{1, 2}})
	if sd := SigmaDiff(h, k, space); sd != 0 {
		t.Errorf("fully correlated SigmaDiff = %g", sd)
	}
}

func TestSigmaDiffMatchesSubForm(t *testing.T) {
	space := testSpace(12)
	rng := rand.New(rand.NewSource(9))
	mk := func() Form {
		var terms []Term
		for id := 0; id < 12; id++ {
			if rng.Float64() < 0.5 {
				terms = append(terms, Term{SourceID(id), rng.NormFloat64()})
			}
		}
		return NewForm(rng.NormFloat64()*10, terms)
	}
	for i := 0; i < 200; i++ {
		f, g := mk(), mk()
		direct := SigmaDiff(f, g, space)
		viaSub := f.Sub(g).Sigma(space)
		if math.Abs(direct-viaSub) > 1e-9*(1+viaSub) {
			t.Fatalf("iter %d: merge-walk SigmaDiff %g vs Sub form %g", i, direct, viaSub)
		}
	}
}

func TestSigmaDiffDoesNotAllocate(t *testing.T) {
	f, g, space := benchForms(64)
	if allocs := testing.AllocsPerRun(100, func() {
		sinkFloat = SigmaDiff(f, g, space)
	}); allocs != 0 {
		t.Errorf("SigmaDiff allocates %g objects per call, want 0", allocs)
	}
}

func TestProbGreaterForms(t *testing.T) {
	space := testSpace(3)
	f := NewForm(1, []Term{{0, 1}})
	g := NewForm(0, []Term{{1, 1}})
	want := stats.Phi(1 / math.Sqrt2)
	if p := ProbGreater(f, g, space); math.Abs(p-want) > 1e-12 {
		t.Errorf("ProbGreater = %g, want %g", p, want)
	}
	// Deterministic ordering.
	if p := ProbGreater(Const(2), Const(1), space); p != 1 {
		t.Errorf("deterministic greater = %g", p)
	}
	if p := ProbGreater(Const(1), Const(2), space); p != 0 {
		t.Errorf("deterministic less = %g", p)
	}
	if p := ProbGreater(Const(1), Const(1), space); p != 0.5 {
		t.Errorf("deterministic tie = %g", p)
	}
	// Complementarity on random forms.
	if p, q := ProbGreater(f, g, space), ProbGreater(g, f, space); math.Abs(p+q-1) > 1e-12 {
		t.Errorf("complementarity: %g + %g != 1", p, q)
	}
}

func TestQuantileForm(t *testing.T) {
	space := testSpace(1)
	f := NewForm(10, []Term{{0, 2}})
	if q := f.Quantile(0.5, space); q != 10 {
		t.Errorf("median = %g", q)
	}
	q95 := f.Quantile(0.95, space)
	if math.Abs(q95-(10+2*1.6448536269514722)) > 1e-9 {
		t.Errorf("q95 = %g", q95)
	}
}

func TestMinAgainstSampling(t *testing.T) {
	space := testSpace(4)
	draws := NewDraws(23)
	// Correlated forms sharing source 1.
	f := NewForm(5, []Term{{0, 1}, {1, 2}})
	g := NewForm(5.5, []Term{{1, 2}, {2, 1.5}})
	res := Min(f, g, space)
	const n = 300000
	var sum float64
	samples := make([]float64, 0)
	for i := 0; i < n; i++ {
		samples = space.Sample(draws, i, samples)
		sum += math.Min(f.Eval(samples), g.Eval(samples))
	}
	mcMean := sum / n
	if math.Abs(mcMean-res.Form.Nominal) > 0.02 {
		t.Errorf("Min mean: MC %g vs model %g", mcMean, res.Form.Nominal)
	}
	if res.Moments.Tightness <= 0 || res.Moments.Tightness >= 1 {
		t.Errorf("tightness = %g", res.Moments.Tightness)
	}
	// The blended form's mean must equal Clark's mean exactly.
	if res.Form.Nominal != res.Moments.Mean {
		t.Errorf("form nominal %g != Clark mean %g", res.Form.Nominal, res.Moments.Mean)
	}
}

func TestMinDegenerateCases(t *testing.T) {
	space := testSpace(2)
	f := NewForm(1, []Term{{0, 1}})
	g := NewForm(3, []Term{{0, 1}}) // same sensitivity: difference deterministic
	res := Min(f, g, space)
	if !formsEqual(res.Form, f) {
		t.Errorf("deterministic-difference min = %+v, want f", res.Form)
	}
	if res.Moments.Tightness != 1 {
		t.Errorf("tightness = %g, want 1", res.Moments.Tightness)
	}
	res = Min(g, f, space)
	if !formsEqual(res.Form, f) {
		t.Errorf("swapped min = %+v, want f", res.Form)
	}
	if res.Moments.Tightness != 0 {
		t.Errorf("tightness = %g, want 0", res.Moments.Tightness)
	}
	// Identical forms.
	res = Min(f, f, space)
	if !formsEqual(res.Form, f) || res.Moments.Tightness != 0.5 {
		t.Errorf("identical min = %+v / %+v", res.Form, res.Moments)
	}
}

func TestMinMeanNotAboveEitherInput(t *testing.T) {
	space := testSpace(6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Form {
			terms := make([]Term, 0, 6)
			for id := 0; id < 6; id++ {
				if rng.Float64() < 0.5 {
					terms = append(terms, Term{SourceID(id), rng.NormFloat64() * 3})
				}
			}
			return NewForm(rng.NormFloat64()*20, terms)
		}
		a, b := mk(), mk()
		res := Min(a, b, space)
		return res.Form.Nominal <= math.Min(a.Nominal, b.Nominal)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewFormCanonicalProperty(t *testing.T) {
	// For arbitrary term lists, NewForm yields strictly ascending unique
	// IDs with no zero coefficients, and evaluation is preserved.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		terms := make([]Term, n)
		for i := range terms {
			terms[i] = Term{ID: SourceID(rng.Intn(6)), Coef: float64(rng.Intn(5) - 2)}
		}
		form := NewForm(rng.NormFloat64(), terms)
		for i, tm := range form.Terms {
			if tm.Coef == 0 {
				return false
			}
			if i > 0 && form.Terms[i-1].ID >= tm.ID {
				return false
			}
		}
		// Evaluation equals the naive sum over the raw terms.
		samples := make([]float64, 6)
		for i := range samples {
			samples[i] = rng.NormFloat64()
		}
		want := form.Nominal
		for _, tm := range terms {
			want += tm.Coef * samples[tm.ID]
		}
		return math.Abs(form.Eval(samples)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMaxMirrorsMin(t *testing.T) {
	space := testSpace(4)
	f := NewForm(5, []Term{{0, 1}, {1, 2}})
	g := NewForm(5.5, []Term{{1, 2}, {2, 1.5}})
	mx := Max(f, g, space)
	mn := Min(f.Scale(-1), g.Scale(-1), space)
	if math.Abs(mx.Form.Nominal+mn.Form.Nominal) > 1e-12 {
		t.Errorf("Max mean %g != -Min(-f,-g) mean %g", mx.Form.Nominal, mn.Form.Nominal)
	}
	// E[max] is at least the larger mean.
	if mx.Form.Nominal < math.Max(f.Nominal, g.Nominal)-1e-12 {
		t.Errorf("E[max] = %g below larger mean", mx.Form.Nominal)
	}
	// Variance matches Clark's moments after moment matching.
	if v := mx.Form.Var(space); math.Abs(v-mx.Moments.Var) > 1e-9 {
		t.Errorf("matched variance %g != Clark %g", v, mx.Moments.Var)
	}
}

func TestMaxAgainstSampling(t *testing.T) {
	space := testSpace(3)
	draws := NewDraws(77)
	f := NewForm(10, []Term{{0, 2}, {1, 1}})
	g := NewForm(10.5, []Term{{1, 1}, {2, 2}})
	res := Max(f, g, space)
	const n = 200000
	var sum, sum2 float64
	var buf []float64
	for i := 0; i < n; i++ {
		buf = space.Sample(draws, i, buf)
		v := math.Max(f.Eval(buf), g.Eval(buf))
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	varMC := sum2/n - mean*mean
	if math.Abs(mean-res.Form.Nominal) > 0.03 {
		t.Errorf("Max mean: MC %g vs model %g", mean, res.Form.Nominal)
	}
	if math.Abs(varMC-res.Form.Var(space)) > 0.1*varMC {
		t.Errorf("Max var: MC %g vs model %g", varMC, res.Form.Var(space))
	}
}

func TestMinMomentMatchedVariance(t *testing.T) {
	space := testSpace(4)
	f := NewForm(0, []Term{{0, 3}})
	g := NewForm(0.2, []Term{{1, 3}})
	res := Min(f, g, space)
	if v := res.Form.Var(space); math.Abs(v-res.Moments.Var) > 1e-9 {
		t.Errorf("min form variance %g != Clark variance %g", v, res.Moments.Var)
	}
}

func TestFormString(t *testing.T) {
	f := NewForm(1.5, []Term{{2, -0.25}})
	s := f.String()
	if s == "" {
		t.Error("empty String()")
	}
}
