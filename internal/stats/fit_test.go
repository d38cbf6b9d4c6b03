package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-3) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %g, want 1", fit.R2)
	}
	if got := fit.Eval(10); math.Abs(got-23) > 1e-12 {
		t.Errorf("Eval(10) = %g", got)
	}
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = -7 + 0.5*xs[i] + rng.NormFloat64()
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.5) > 0.01 {
		t.Errorf("slope = %g, want ~0.5", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %g, want near 1", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitLine([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x should error")
	}
	// Constant y is a legal horizontal line with R2 = 1.
	fit, err := FitLine([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 5 || fit.R2 != 1 {
		t.Errorf("constant-y fit = %+v", fit)
	}
}
