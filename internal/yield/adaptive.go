package yield

// Adaptive (early-stopping) Monte Carlo. The fixed-budget samplers burn
// their whole sample budget even when the estimate converged orders of
// magnitude earlier; the adaptive sampler draws the chunks of
// stats.ShardPlan in order, each split over its workers, keeps a running
// confidence interval of the target quantile, and stops at the first
// chunk boundary where the CI half-width reaches the requested tolerance
// (or the sample cap). No chunk is drawn before the previous one has
// been judged, so no work is thrown away.
//
// Determinism: sample i depends only on (Seed, i), and the stopping
// decision after chunk k only on chunks 0..k, so the result is invariant
// to the worker count. A run that never converges returns exactly the
// MonteCarloParallel(MaxSamples, Seed) sample vector; a run that
// converges early returns a chunk-aligned prefix of it.

import (
	"fmt"
	"math"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// AdaptiveOptions configures an early-stopping Monte-Carlo run.
type AdaptiveOptions struct {
	// MaxSamples is the sample cap — the fixed budget the adaptive run
	// never exceeds. Required > 0.
	MaxSamples int
	// Seed selects the keyed sample stream.
	Seed int64
	// Workers is the number of goroutines each chunk is split over; <=0
	// selects GOMAXPROCS. The result never depends on it.
	Workers int
	// Quantile is the q whose empirical quantile drives the stopping
	// rule (and is reported in Estimate). Required inside (0, 1).
	Quantile float64
	// Confidence is the two-sided CI level of the stopping rule;
	// 0 selects 0.95.
	Confidence float64
	// Tol is the relative CI half-width target: the run stops once
	// halfWidth <= Tol·|quantile estimate| (absolute Tol when the
	// estimate is 0). <=0 disables early stopping — the run burns the
	// full budget, still emitting progress estimates.
	Tol float64
	// OnEstimate, when non-nil, observes the running estimate after
	// every chunk. Returning false aborts the run (the
	// samples so far are returned with Converged=false) — the hook a
	// streaming client uses to stop on disconnect.
	OnEstimate func(Estimate) bool
}

// Estimate is the running (or final) state of an adaptive Monte-Carlo
// run after an integral number of chunks.
type Estimate struct {
	// Samples is the number of samples folded in so far.
	Samples int
	// Mean and Sigma are the running sample moments.
	Mean, Sigma float64
	// Quantile is the interpolated empirical q-quantile and HalfWidth
	// the half-width of its distribution-free CI at the configured
	// confidence.
	Quantile, HalfWidth float64
	// Converged reports whether the stopping rule fired (always false
	// while Tol <= 0).
	Converged bool
}

// converged applies the stopping rule to one estimate.
func (o AdaptiveOptions) converged(est, halfWidth float64) bool {
	if o.Tol <= 0 {
		return false
	}
	if est != 0 {
		return halfWidth <= o.Tol*math.Abs(est)
	}
	return halfWidth <= o.Tol
}

// MonteCarloAdaptive is MonteCarloSized with the sequential stopping
// rule of AdaptiveOptions: the chunks of stats.ShardPlan(MaxSamples) are
// drawn in order, each split over opts.Workers, until the quantile CI
// converges or the budget is exhausted. The returned samples are a
// chunk-aligned prefix of the MonteCarloParallel(MaxSamples, Seed)
// stream.
func MonteCarloAdaptive(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	wires rctree.WireAssignment, model *variation.Model, opts AdaptiveOptions) ([]float64, Estimate, error) {
	conf, err := stats.CheckAdaptive(opts.MaxSamples, opts.Quantile, opts.Confidence)
	if err != nil {
		return nil, Estimate{}, fmt.Errorf("yield: %w", err)
	}
	prog, err := CompileMC(tree, lib, assign, wires, model)
	if err != nil {
		return nil, Estimate{}, err
	}
	samples := make([]float64, opts.MaxSamples)
	// sorted is the drawn prefix in ascending order; each chunk is
	// sorted on its own and merged in, linear in the prefix per chunk.
	sorted := make([]float64, 0, opts.MaxSamples)
	var run stats.Running
	var est Estimate
	for _, chunk := range stats.ShardPlan(opts.MaxSamples) {
		stats.RunShards(chunk, opts.Workers,
			func(sh stats.Shard) { prog.sample(samples, opts.Seed, sh) })
		part := samples[chunk.From:chunk.End()]
		run.AddAll(part)
		sorted = stats.MergeSorted(sorted, part)
		q, hw, err := stats.QuantileEstimate(sorted, opts.Quantile, conf)
		if err != nil {
			return nil, Estimate{}, err
		}
		est = Estimate{
			Samples:   chunk.End(),
			Mean:      run.Mean(),
			Sigma:     run.Sigma(),
			Quantile:  q,
			HalfWidth: hw,
			Converged: opts.converged(q, hw),
		}
		keepGoing := opts.OnEstimate == nil || opts.OnEstimate(est)
		if est.Converged || !keepGoing {
			break
		}
	}
	return samples[:est.Samples:est.Samples], est, nil
}
