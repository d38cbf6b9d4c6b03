package yield

// Adaptive (early-stopping) Monte Carlo. The fixed-budget samplers burn
// their whole sample budget even when the estimate converged orders of
// magnitude earlier; the adaptive sampler runs the same deterministic
// 16-shard layout as MonteCarloParallel in shard-sized chunks, keeps a
// running confidence interval of the target quantile, and stops at the
// first shard boundary where the CI half-width reaches the requested
// tolerance (or the sample cap).
//
// Determinism: the sample stream is identical to MonteCarloParallel's —
// shard i draws from seed+i — and the stopping decision after shard k
// depends only on shards 0..k, so the result is invariant to the worker
// count. A run that never converges returns exactly the
// MonteCarloParallel(n, seed) sample vector; a run that converges early
// returns a shard-aligned prefix of it.

import (
	"fmt"
	"math"
	"runtime"

	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// mcShards is the fixed shard count of the deterministic Monte-Carlo
// layout, shared by the parallel and adaptive samplers so their streams
// coincide.
const mcShards = 16

// mcShard is one deterministic sampling chunk: samples [from, from+count)
// drawn from its own seed.
type mcShard struct {
	from, count int
	seed        int64
}

// mcPlan splits n samples over the fixed shard layout. Shard i is seeded
// seed+i; empty shards (n < mcShards) are dropped.
func mcPlan(n int, seed int64) []mcShard {
	per := n / mcShards
	rem := n % mcShards
	plan := make([]mcShard, 0, mcShards)
	from := 0
	for i := 0; i < mcShards; i++ {
		count := per
		if i < rem {
			count++
		}
		if count == 0 {
			continue
		}
		plan = append(plan, mcShard{from: from, count: count, seed: seed + int64(i)})
		from += count
	}
	return plan
}

// AdaptiveOptions configures an early-stopping Monte-Carlo run.
type AdaptiveOptions struct {
	// MaxSamples is the sample cap — the fixed budget the adaptive run
	// never exceeds. Required > 0.
	MaxSamples int
	// Seed seeds the deterministic shard streams (shard i uses Seed+i).
	Seed int64
	// Workers bounds concurrent shard evaluations (lookahead); <=0
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
	// every committed shard. Returning false aborts the run (the
	// samples so far are returned with Converged=false) — the hook a
	// streaming client uses to stop on disconnect.
	OnEstimate func(Estimate) bool
}

// Estimate is the running (or final) state of an adaptive Monte-Carlo
// run after an integral number of shards.
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

func (o AdaptiveOptions) withDefaults() (AdaptiveOptions, error) {
	if o.MaxSamples <= 0 {
		return o, fmt.Errorf("yield: adaptive MC sample cap %d must be positive", o.MaxSamples)
	}
	if o.Quantile <= 0 || o.Quantile >= 1 {
		return o, fmt.Errorf("yield: adaptive MC quantile %g outside (0, 1)", o.Quantile)
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		return o, fmt.Errorf("yield: adaptive MC confidence %g outside (0, 1)", o.Confidence)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
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
// rule of AdaptiveOptions: shard-sized chunks of the deterministic
// 16-shard stream are committed in order until the quantile CI converges
// or the budget is exhausted. The returned samples are a shard-aligned
// prefix of the MonteCarloParallel(MaxSamples, Seed) stream.
func MonteCarloAdaptive(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	wires rctree.WireAssignment, model *variation.Model, opts AdaptiveOptions) ([]float64, Estimate, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, Estimate{}, err
	}
	prog, err := CompileMC(tree, lib, assign, wires, model)
	if err != nil {
		return nil, Estimate{}, err
	}
	return runAdaptive(opts, mcPlan(opts.MaxSamples, opts.Seed), prog.sample)
}

// runAdaptive drives the sequential stopping loop over a shard plan:
// shards are evaluated with up to opts.Workers of lookahead but committed
// strictly in shard order, so the stopping point — and therefore the
// returned sample vector — depends only on (plan, seed), never on timing
// or worker count. Speculative shards past the stopping point are
// discarded (their cost is bounded by the lookahead window). eval fills
// dst with the shard's samples drawn from seed.
func runAdaptive(opts AdaptiveOptions, plan []mcShard,
	eval func(dst []float64, seed int64)) ([]float64, Estimate, error) {
	// Shards write disjoint ranges of samples, so speculative evaluation
	// past the committed prefix is safe.
	samples := make([]float64, opts.MaxSamples)
	futures := make([]chan struct{}, len(plan))
	launched := 0
	launchThrough := func(limit int) {
		for ; launched < limit && launched < len(plan); launched++ {
			ch := make(chan struct{})
			futures[launched] = ch
			sh := plan[launched]
			go func() {
				eval(samples[sh.from:sh.from+sh.count], sh.seed)
				close(ch)
			}()
		}
	}
	// drain waits out any speculative shards still in flight so no
	// goroutine writes into samples after the caller regains it.
	drain := func(from int) {
		for i := from; i < launched; i++ {
			<-futures[i]
		}
	}

	// sorted is the committed prefix in ascending order; each shard is
	// sorted on its own and merged in, linear in the prefix per shard.
	sorted := make([]float64, 0, opts.MaxSamples)
	var run stats.Running
	var est Estimate
	for i, sh := range plan {
		launchThrough(i + opts.Workers)
		<-futures[i]
		n := sh.from + sh.count
		part := samples[sh.from:n]
		run.AddAll(part)
		sorted = stats.MergeSorted(sorted, part)

		q, hw, err := stats.QuantileEstimate(sorted, opts.Quantile, opts.Confidence)
		if err != nil {
			drain(i + 1)
			return nil, Estimate{}, err
		}
		est = Estimate{
			Samples:   n,
			Mean:      run.Mean(),
			Sigma:     run.Sigma(),
			Quantile:  q,
			HalfWidth: hw,
			Converged: opts.converged(q, hw),
		}
		keepGoing := true
		if opts.OnEstimate != nil {
			keepGoing = opts.OnEstimate(est)
		}
		if est.Converged || !keepGoing {
			drain(i + 1)
			return samples[:n:n], est, nil
		}
	}
	return samples, est, nil
}
