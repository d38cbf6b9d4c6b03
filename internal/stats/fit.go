package stats

import "fmt"

// LinearFit holds the result of an ordinary least-squares straight-line
// fit y ≈ Intercept + Slope·x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination in [0, 1]; 1 is a perfect fit.
	R2 float64
}

// FitLine performs an ordinary least-squares fit of ys against xs. It is
// used both to extract first-order device sensitivities (eq. 19–20) from
// simulated samples and to verify the linear runtime scaling of Figure 5.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: FitLine length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLine needs at least 2 points, got %d", len(xs))
	}
	mx := Mean(xs)
	my := Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLine x values are all identical")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1 // constant y fitted exactly by the horizontal line
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// Eval returns the fitted value at x.
func (f LinearFit) Eval(x float64) float64 { return f.Intercept + f.Slope*x }
