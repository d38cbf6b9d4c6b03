package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestRunningMatchesMeanVar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 5
	}
	var r Running
	r.AddAll(xs)
	mean, variance := MeanVar(xs)
	if math.Abs(r.Mean()-mean) > 1e-12 {
		t.Errorf("running mean %g vs batch %g", r.Mean(), mean)
	}
	if math.Abs(r.Var()-variance) > 1e-9 {
		t.Errorf("running var %g vs batch %g", r.Var(), variance)
	}
	if r.N() != len(xs) {
		t.Errorf("N = %d, want %d", r.N(), len(xs))
	}
}

func TestMeanCIHalfWidthShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r Running
	for i := 0; i < 100; i++ {
		r.Add(rng.NormFloat64())
	}
	hw100 := r.MeanCIHalfWidth(0.95)
	for i := 0; i < 9900; i++ {
		r.Add(rng.NormFloat64())
	}
	hw10k := r.MeanCIHalfWidth(0.95)
	if hw100 <= 0 || hw10k <= 0 {
		t.Fatalf("non-positive half-widths %g, %g", hw100, hw10k)
	}
	// √100 more samples shrinks the half-width by ~10×.
	if ratio := hw100 / hw10k; ratio < 5 || ratio > 20 {
		t.Errorf("half-width ratio %g, want ~10", ratio)
	}
}

// TestQuantileCICoverage draws repeated standard-normal samples and
// checks the 95% CI for the 5% quantile covers the true value at
// roughly the nominal rate.
func TestQuantileCICoverage(t *testing.T) {
	const (
		trials = 200
		n      = 2000
		q      = 0.05
	)
	truth := Quantile(q)
	rng := rand.New(rand.NewSource(11))
	covered := 0
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		slices.Sort(xs)
		lo, hi, err := QuantileCI(xs, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if lo > hi {
			t.Fatalf("inverted CI [%g, %g]", lo, hi)
		}
		if lo <= truth && truth <= hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.88 {
		t.Errorf("CI covered the true quantile in %.0f%% of trials, want ≥ 88%%", 100*rate)
	}
}

func TestQuantileEstimate(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	est, hw, err := QuantileEstimate(xs, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est != 50 {
		t.Errorf("median estimate %g, want 50", est)
	}
	if hw <= 0 {
		t.Errorf("half-width %g, want > 0", hw)
	}
	if _, _, err := QuantileEstimate(nil, 0.5, 0.95); err == nil {
		t.Error("empty sample: want error")
	}
	for _, c := range []struct{ q, confidence float64 }{
		{0, 0.95}, {1, 0.95}, {math.NaN(), 0.95},
		{0.5, 0}, {0.5, 1}, {0.5, math.NaN()},
	} {
		if _, _, err := QuantileCI(xs, c.q, c.confidence); err == nil {
			t.Errorf("q=%g confidence=%g: want error", c.q, c.confidence)
		}
	}
}

func TestCheckAdaptive(t *testing.T) {
	if conf, err := CheckAdaptive(100, 0.05, 0); err != nil || conf != 0.95 {
		t.Errorf("default confidence: got %g, %v; want 0.95", conf, err)
	}
	if conf, err := CheckAdaptive(1, 0.5, 0.99); err != nil || conf != 0.99 {
		t.Errorf("explicit confidence: got %g, %v; want 0.99", conf, err)
	}
	for _, c := range []struct {
		n             int
		q, confidence float64
	}{
		{0, 0.05, 0}, {-1, 0.05, 0},
		{100, 0, 0}, {100, 1, 0}, {100, math.NaN(), 0},
		{100, 0.05, 1}, {100, 0.05, -0.5}, {100, 0.05, math.NaN()},
	} {
		if _, err := CheckAdaptive(c.n, c.q, c.confidence); err == nil {
			t.Errorf("n=%d q=%g confidence=%g: want error", c.n, c.q, c.confidence)
		}
	}
}

// TestMergeSortedMatchesFullSort: merging shard after shard yields the
// same slice as re-sorting the whole prefix, duplicates included, and
// leaves each batch untouched.
func TestMergeSortedMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var all, sorted []float64
	for shard := 0; shard < 20; shard++ {
		batch := make([]float64, rng.Intn(40))
		for i := range batch {
			batch[i] = float64(rng.Intn(50)) + rng.NormFloat64()*float64(shard%2)
		}
		orig := slices.Clone(batch)
		all = append(all, batch...)
		sorted = MergeSorted(sorted, batch)
		if !slices.Equal(batch, orig) {
			t.Fatal("MergeSorted reordered its batch")
		}
		want := slices.Clone(all)
		slices.Sort(want)
		if !slices.Equal(sorted, want) {
			t.Fatalf("shard %d: merged prefix %v, want %v", shard, sorted, want)
		}
	}
}
