package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSigmaDiff(t *testing.T) {
	// Independent variables: variance adds.
	if got := SigmaDiff(3, 4, 0); math.Abs(got-5) > 1e-12 {
		t.Errorf("SigmaDiff(3,4,0) = %g, want 5", got)
	}
	// Perfect correlation with equal sigma: deterministic difference.
	if got := SigmaDiff(2, 2, 1); got != 0 {
		t.Errorf("SigmaDiff(2,2,1) = %g, want 0", got)
	}
	// Anti-correlation maximizes the spread.
	if got := SigmaDiff(2, 2, -1); math.Abs(got-4) > 1e-12 {
		t.Errorf("SigmaDiff(2,2,-1) = %g, want 4", got)
	}
}

func TestProbGreaterComplementarity(t *testing.T) {
	// Lemma 2: P(T1>T2) + P(T2>T1) = 1 for any pair.
	f := func(m1, s1r, m2, s2r, rhoR float64) bool {
		m1, m2 = sane(m1, 100), sane(m2, 100)
		s1 := math.Abs(sane(s1r, 10))
		s2 := math.Abs(sane(s2r, 10))
		rho := math.Mod(sane(rhoR, 1), 1)
		p := ProbGreater(m1, s1, m2, s2, rho)
		q := ProbGreater(m2, s2, m1, s1, rho)
		return math.Abs(p+q-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProbGreaterKnownValues(t *testing.T) {
	// Equal means: exactly 0.5.
	if got := ProbGreater(5, 1, 5, 2, 0.3); got != 0.5 {
		t.Errorf("equal means: %g, want 0.5", got)
	}
	// Deterministic difference.
	if got := ProbGreater(6, 2, 5, 2, 1); got != 1 {
		t.Errorf("perfectly correlated larger mean: %g, want 1", got)
	}
	if got := ProbGreater(4, 2, 5, 2, 1); got != 0 {
		t.Errorf("perfectly correlated smaller mean: %g, want 0", got)
	}
	// Both deterministic.
	if got := ProbGreater(1, 0, 2, 0, 0); got != 0 {
		t.Errorf("deterministic: %g, want 0", got)
	}
	// Eq. 8 hand check: mu diff 1, independent unit sigmas -> Phi(1/sqrt 2).
	want := Phi(1 / math.Sqrt2)
	if got := ProbGreater(1, 1, 0, 1, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("eq.8 check: %g, want %g", got, want)
	}
}

func TestProbGreaterLemma4MeanOrdering(t *testing.T) {
	// Lemma 4: P(T1 > T2) > 0.5 iff mu1 > mu2 (when not degenerate).
	f := func(m1, m2, s1r, s2r, rhoR float64) bool {
		m1, m2 = sane(m1, 100), sane(m2, 100)
		s1 := math.Abs(sane(s1r, 10)) + 0.1
		s2 := math.Abs(sane(s2r, 10)) + 0.2 // distinct so sd>0 even at rho=1
		rho := 0.9 * math.Mod(sane(rhoR, 1), 1)
		p := ProbGreater(m1, s1, m2, s2, rho)
		switch {
		case m1 > m2:
			return p > 0.5
		case m1 < m2:
			return p < 0.5
		default:
			return p == 0.5
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTransitivityTheorem2 is the property test for the paper's Theorem 2:
// for jointly normal T1, T2, T3, if P(T1>T2) > pbar and P(T2>T3) > pbar
// then P(T1>T3) > pbar for any pbar in [0.5, 1).
func TestTransitivityTheorem2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 20000
	checked := 0
	for trial := 0; trial < trials; trial++ {
		// Build a random joint normal triple from a random 3x4 loading
		// matrix over 4 independent sources: guarantees a valid joint
		// normal with arbitrary correlations.
		var load [3][4]float64
		for i := range load {
			for j := range load[i] {
				load[i][j] = rng.NormFloat64()
			}
		}
		mu := [3]float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		sigma := func(i int) float64 {
			s := 0.0
			for _, a := range load[i] {
				s += a * a
			}
			return math.Sqrt(s)
		}
		rho := func(i, j int) float64 {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += load[i][k] * load[j][k]
			}
			si, sj := sigma(i), sigma(j)
			if si == 0 || sj == 0 {
				return 0
			}
			return s / (si * sj)
		}
		pbar := 0.5 + 0.49*rng.Float64()
		p12 := ProbGreater(mu[0], sigma(0), mu[1], sigma(1), rho(0, 1))
		p23 := ProbGreater(mu[1], sigma(1), mu[2], sigma(2), rho(1, 2))
		if p12 <= pbar || p23 <= pbar {
			continue // premise not satisfied; resample
		}
		checked++
		p13 := ProbGreater(mu[0], sigma(0), mu[2], sigma(2), rho(0, 2))
		if p13 <= pbar {
			t.Fatalf("transitivity violated: pbar=%.3f p12=%.4f p23=%.4f p13=%.4f",
				pbar, p12, p23, p13)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d triples satisfied the premise; test is vacuous", checked)
	}
}

func TestMinNormalsAgainstMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ mu1, s1, mu2, s2, rho float64 }{
		{0, 1, 0, 1, 0},
		{0, 1, 1, 2, 0.5},
		{-3, 0.5, -2.8, 0.7, 0.9},
		{10, 2, 4, 1, -0.6},
	}
	const n = 400000
	for _, c := range cases {
		m := MinNormals(c.mu1, c.s1, c.mu2, c.s2, c.rho)
		var sum, sum2, tight float64
		for i := 0; i < n; i++ {
			z1 := rng.NormFloat64()
			z2 := c.rho*z1 + math.Sqrt(1-c.rho*c.rho)*rng.NormFloat64()
			x := c.mu1 + c.s1*z1
			y := c.mu2 + c.s2*z2
			v := math.Min(x, y)
			sum += v
			sum2 += v * v
			if x < y {
				tight++
			}
		}
		mean := sum / n
		varMC := sum2/n - mean*mean
		if math.Abs(mean-m.Mean) > 0.02 {
			t.Errorf("case %+v: MC mean %.4f vs Clark %.4f", c, mean, m.Mean)
		}
		if math.Abs(varMC-m.Var) > 0.05*math.Max(1, m.Var) {
			t.Errorf("case %+v: MC var %.4f vs Clark %.4f", c, varMC, m.Var)
		}
		if math.Abs(tight/n-m.Tightness) > 0.01 {
			t.Errorf("case %+v: MC tightness %.4f vs %.4f", c, tight/n, m.Tightness)
		}
	}
}

func TestMinNormalsDegenerate(t *testing.T) {
	// Deterministic difference: exact min of means.
	m := MinNormals(3, 2, 5, 2, 1)
	if m.Mean != 3 || m.Var != 4 || m.Tightness != 1 {
		t.Errorf("degenerate min = %+v", m)
	}
	m = MinNormals(5, 2, 3, 2, 1)
	if m.Mean != 3 || m.Tightness != 0 {
		t.Errorf("degenerate min (swapped) = %+v", m)
	}
	// Identical variables.
	m = MinNormals(4, 1.5, 4, 1.5, 1)
	if m.Mean != 4 || m.Tightness != 0.5 {
		t.Errorf("identical variables min = %+v", m)
	}
}

func TestMinMeanBelowBothMeans(t *testing.T) {
	f := func(m1r, m2r, s1r, s2r, rhoR float64) bool {
		m1, m2 := sane(m1r, 50), sane(m2r, 50)
		s1 := math.Abs(sane(s1r, 5))
		s2 := math.Abs(sane(s2r, 5))
		rho := math.Mod(sane(rhoR, 1), 1)
		m := MinNormals(m1, s1, m2, s2, rho)
		return m.Mean <= math.Min(m1, m2)+1e-9 && m.Var >= 0 &&
			m.Tightness >= 0 && m.Tightness <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinNormalsTightnessComplementarity(t *testing.T) {
	// P(T1 < T2) from Min(a, b) and P(T2 < T1) from Min(b, a) sum to 1.
	f := func(m1r, m2r, s1r, s2r, rhoR float64) bool {
		m1, m2 := sane(m1r, 50), sane(m2r, 50)
		s1 := math.Abs(sane(s1r, 5))
		s2 := math.Abs(sane(s2r, 5))
		rho := math.Mod(sane(rhoR, 1), 1)
		a := MinNormals(m1, s1, m2, s2, rho)
		b := MinNormals(m2, s2, m1, s1, rho)
		return math.Abs(a.Tightness+b.Tightness-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinNormalsSymmetricMean(t *testing.T) {
	// min is symmetric: swapping the arguments preserves mean and var.
	f := func(m1r, m2r, s1r, s2r, rhoR float64) bool {
		m1, m2 := sane(m1r, 50), sane(m2r, 50)
		s1 := math.Abs(sane(s1r, 5))
		s2 := math.Abs(sane(s2r, 5))
		rho := math.Mod(sane(rhoR, 1), 1)
		a := MinNormals(m1, s1, m2, s2, rho)
		b := MinNormals(m2, s2, m1, s1, rho)
		return math.Abs(a.Mean-b.Mean) < 1e-9 && math.Abs(a.Var-b.Var) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sane maps arbitrary quick-generated floats into a bounded usable range.
func sane(x, scale float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, scale)
}
