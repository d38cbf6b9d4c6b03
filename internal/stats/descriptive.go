package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanVar returns the sample mean and the unbiased (n-1) sample variance
// of xs in one pass (Welford's algorithm). The variance is 0 when
// len(xs) < 2.
func MeanVar(xs []float64) (mean, variance float64) {
	var m, m2 float64
	for i, x := range xs {
		d := x - m
		m += d / float64(i+1)
		m2 += d * (x - m)
	}
	if len(xs) > 1 {
		variance = m2 / float64(len(xs)-1)
	}
	return m, variance
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	_, v := MeanVar(xs)
	return math.Sqrt(v)
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: percentile of empty sample")
	}
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("stats: percentile p=%g outside [0,1]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

// percentileSorted returns the p-quantile of an already-sorted sample.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Covariance returns the unbiased sample covariance of xs and ys, which
// must have equal length >= 2.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: covariance length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: covariance needs at least 2 samples, got %d", len(xs))
	}
	mx := Mean(xs)
	my := Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1), nil
}

// Correlation returns the sample Pearson correlation of xs and ys.
func Correlation(xs, ys []float64) (float64, error) {
	cov, err := Covariance(xs, ys)
	if err != nil {
		return 0, err
	}
	sx := StdDev(xs)
	sy := StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0, fmt.Errorf("stats: correlation undefined for constant sample")
	}
	return cov / (sx * sy), nil
}

// KSNormal returns the one-sample Kolmogorov–Smirnov distance between the
// empirical distribution of xs and N(mu, sigma). Smaller is a better fit;
// the statistic lies in [0, 1].
func KSNormal(xs []float64, mu, sigma float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: KS distance of empty sample")
	}
	if sigma <= 0 {
		return 0, fmt.Errorf("stats: KS distance needs positive sigma, got %g", sigma)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	d := 0.0
	for i, x := range sorted {
		cdf := NormalCDF(x, mu, sigma)
		lo := float64(i) / n
		hi := float64(i+1) / n
		d = math.Max(d, math.Max(cdf-lo, hi-cdf))
	}
	return d, nil
}
