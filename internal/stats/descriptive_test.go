package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVar(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, v := MeanVar(xs)
	if m != 5 {
		t.Errorf("mean = %g, want 5", m)
	}
	// Population variance is 4; unbiased sample variance = 32/7.
	if math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("var = %g, want %g", v, 32.0/7.0)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("stddev = %g", got)
	}
}

func TestMeanVarEdge(t *testing.T) {
	if m, v := MeanVar(nil); m != 0 || v != 0 {
		t.Errorf("empty MeanVar = %g, %g", m, v)
	}
	if m, v := MeanVar([]float64{42}); m != 42 || v != 0 {
		t.Errorf("single MeanVar = %g, %g", m, v)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestMeanVarMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) < 2 {
			return true
		}
		m, v := MeanVar(xs)
		nm := Mean(xs)
		var s float64
		for _, x := range xs {
			s += (x - nm) * (x - nm)
		}
		nv := s / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(nv))
		return math.Abs(m-nm) < 1e-6 && math.Abs(v-nv)/scale < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	// Input is untouched.
	if xs[0] != 5 {
		t.Error("Percentile sorted the caller's slice")
	}
	if _, err := Percentile(nil, 0.5); err == nil {
		t.Error("empty percentile should error")
	}
	if _, err := Percentile(xs, 1.5); err == nil {
		t.Error("out-of-range p should error")
	}
	if _, err := Percentile(xs, math.NaN()); err == nil {
		t.Error("NaN p should error")
	}
	got, err := Percentile([]float64{7}, 0.99)
	if err != nil || got != 7 {
		t.Errorf("single-element percentile = %g, %v", got, err)
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	cov, err := Covariance(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov-5) > 1e-12 {
		t.Errorf("cov = %g, want 5", cov)
	}
	r, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %g", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Correlation(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anti-correlation = %g", r)
	}
	if _, err := Covariance(xs, ys[:3]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Covariance(xs[:1], ys[:1]); err == nil {
		t.Error("single sample should error")
	}
	if _, err := Correlation(xs, []float64{3, 3, 3, 3, 3}); err == nil {
		t.Error("constant sample correlation should error")
	}
}

func TestCorrelationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64() + 0.5*xs[i]
		}
		r, err := Correlation(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if r < -1-1e-12 || r > 1+1e-12 {
			t.Fatalf("correlation %g out of [-1,1]", r)
		}
	}
}

func TestKSNormalGoodFit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 5 + 2*rng.NormFloat64()
	}
	d, err := KSNormal(xs, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.02 {
		t.Errorf("KS distance for true normal sample = %g, want small", d)
	}
	// Badly mismatched parameters should give a large distance.
	d2, err := KSNormal(xs, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 < 0.5 {
		t.Errorf("KS distance for wrong mean = %g, want large", d2)
	}
	if _, err := KSNormal(nil, 0, 1); err == nil {
		t.Error("empty KS should error")
	}
	if _, err := KSNormal(xs, 0, 0); err == nil {
		t.Error("zero sigma KS should error")
	}
}
