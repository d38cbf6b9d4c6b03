package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero bins should error")
	}
	if _, err := NewHistogram(10, 0, 5); err == nil {
		t.Error("inverted range should error")
	}
	if _, err := HistogramOf(nil, 5); err == nil {
		t.Error("empty sample should error")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(0)    // bin 0
	h.Add(0.5)  // bin 0
	h.Add(9.99) // bin 9
	h.Add(-1)   // under
	h.Add(10)   // over (half-open range)
	h.Add(42)   // over
	if h.Counts[0] != 2 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Total() != 6 {
		t.Errorf("total = %d", h.Total())
	}
	if h.BinWidth() != 1 {
		t.Errorf("bin width = %g", h.BinWidth())
	}
	if h.BinCenter(3) != 3.5 {
		t.Errorf("bin center = %g", h.BinCenter(3))
	}
}

func TestHistogramOfCoversAllSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 3
	}
	h, err := HistogramOf(xs, 40)
	if err != nil {
		t.Fatal(err)
	}
	if h.Under != 0 || h.Over != 0 {
		t.Errorf("HistogramOf dropped samples: under=%d over=%d", h.Under, h.Over)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != len(xs) {
		t.Errorf("binned %d of %d samples", sum, len(xs))
	}
}

func TestHistogramOfConstantSample(t *testing.T) {
	h, err := HistogramOf([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Under != 0 || h.Over != 0 {
		t.Error("constant sample fell outside the padded range")
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 100 + 7*rng.NormFloat64()
	}
	h, err := HistogramOf(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	integral := 0.0
	for _, d := range h.PDF() {
		integral += d * h.BinWidth()
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Errorf("PDF integral = %g, want 1", integral)
	}
}

func TestPDFEmpty(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range h.PDF() {
		if d != 0 {
			t.Errorf("empty histogram PDF = %v", h.PDF())
		}
	}
}
