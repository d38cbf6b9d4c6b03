package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Sequential-stopping helpers for adaptive Monte Carlo: a streaming
// moment accumulator plus confidence intervals for empirical quantiles.
// The adaptive sampler in internal/yield commits the shards of
// ShardPlan in order through RunShards (shard.go) and stops as soon as
// the CI half-width of its quantile estimate reaches a requested
// tolerance — the sequential analogue of the fixed-budget estimators in
// descriptive.go.

// Running accumulates a sample stream one value at a time (Welford's
// algorithm, the streaming twin of MeanVar). The zero value is ready to
// use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// AddAll folds a batch of observations into the accumulator.
func (r *Running) AddAll(xs []float64) {
	for _, x := range xs {
		r.Add(x)
	}
}

// N returns the number of observations folded in so far.
func (r *Running) N() int { return r.n }

// Mean returns the running sample mean (0 before any observation).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the running unbiased sample variance (0 while n < 2).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Sigma returns the running unbiased sample standard deviation.
func (r *Running) Sigma() float64 { return math.Sqrt(r.Var()) }

// CheckAdaptive validates the options every adaptive Monte-Carlo sampler
// shares — a positive sample cap, and a stopping quantile and two-sided
// confidence inside (0, 1) — and returns the confidence with 0 replaced
// by the 0.95 default. NaN fails every range check.
func CheckAdaptive(maxSamples int, quantile, confidence float64) (float64, error) {
	if maxSamples <= 0 {
		return 0, fmt.Errorf("adaptive MC sample cap %d must be positive", maxSamples)
	}
	if !(quantile > 0 && quantile < 1) {
		return 0, fmt.Errorf("adaptive MC quantile %g outside (0, 1)", quantile)
	}
	if confidence == 0 {
		confidence = 0.95
	}
	if !(confidence > 0 && confidence < 1) {
		return 0, fmt.Errorf("adaptive MC confidence %g outside (0, 1)", confidence)
	}
	return confidence, nil
}

// QuantileCI returns a distribution-free confidence interval for the
// q-quantile of the population from a sorted sample, via the normal
// approximation to the binomial order-statistic bracket: the interval
// endpoints are the order statistics at ranks n·q ± z·√(n·q·(1-q)),
// clamped to the sample. confidence is the two-sided level (e.g. 0.95).
// The sample must be sorted ascending and non-empty.
func QuantileCI(sorted []float64, q, confidence float64) (lo, hi float64, err error) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, fmt.Errorf("stats: quantile CI of empty sample")
	}
	if !(q > 0 && q < 1) {
		return 0, 0, fmt.Errorf("stats: quantile q=%g outside (0,1)", q)
	}
	if !(confidence > 0 && confidence < 1) {
		return 0, 0, fmt.Errorf("stats: confidence %g outside (0,1)", confidence)
	}
	z := Quantile(0.5 + confidence/2)
	center := float64(n) * q
	delta := z * math.Sqrt(float64(n)*q*(1-q))
	loIdx := int(math.Floor(center-delta)) - 1
	hiIdx := int(math.Ceil(center + delta))
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx > n-1 {
		hiIdx = n - 1
	}
	return sorted[loIdx], sorted[hiIdx], nil
}

// QuantileEstimate reduces a sorted sample to the interpolated q-quantile
// plus the half-width of its distribution-free CI — the stopping signal
// of the adaptive Monte-Carlo loop. The sample must be sorted ascending.
func QuantileEstimate(sorted []float64, q, confidence float64) (est, halfWidth float64, err error) {
	if len(sorted) == 0 {
		return 0, 0, fmt.Errorf("stats: quantile estimate of empty sample")
	}
	lo, hi, err := QuantileCI(sorted, q, confidence)
	if err != nil {
		return 0, 0, err
	}
	return percentileSorted(sorted, q), (hi - lo) / 2, nil
}

// MergeSorted returns sorted (ascending) with the values of batch merged
// in, still ascending, reusing sorted's spare capacity. batch is left
// unchanged. Sorting only the batch and merging costs O(len(sorted)) per
// call where re-sorting the whole prefix would cost O(n log n). The
// result equals slices.Sort of the concatenation, up to the order of
// values that compare equal with different bits (-0 and +0, NaNs).
func MergeSorted(sorted, batch []float64) []float64 {
	b := slices.Clone(batch)
	slices.Sort(b)
	i, j := len(sorted)-1, len(b)-1
	out := slices.Grow(sorted, len(b))[:len(sorted)+len(b)]
	for k := len(out) - 1; j >= 0; k-- {
		if i >= 0 && cmp.Less(b[j], out[i]) {
			out[k] = out[i]
			i--
		} else {
			out[k] = b[j]
			j--
		}
	}
	return out
}
