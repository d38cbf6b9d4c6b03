package sta

// Early-stopping Monte Carlo for timing graphs: the same deterministic
// 16-shard layout as MonteCarloParallel, committed strictly in shard
// order, with a distribution-free confidence interval per output pin.
// The run stops at the first shard boundary where EVERY output's
// q-quantile CI half-width is inside the requested relative tolerance,
// so multi-output graphs converge on their slowest-converging pin.

import (
	"fmt"
	"math"
	"runtime"

	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// AdaptiveOptions configures an early-stopping Monte-Carlo run over a
// timing graph. Semantics mirror yield.AdaptiveOptions: the sample
// stream is a shard-aligned prefix of MonteCarloParallel(MaxSamples,
// Seed), and the stopping point never depends on Workers.
type AdaptiveOptions struct {
	// MaxSamples is the sample cap. Required > 0.
	MaxSamples int
	// Seed seeds the deterministic shard streams (shard i uses Seed+i).
	Seed int64
	// Workers bounds concurrent shard evaluations; <=0 selects
	// GOMAXPROCS. The result never depends on it.
	Workers int
	// Quantile is the q whose empirical quantile drives the stopping
	// rule. Required inside (0, 1).
	Quantile float64
	// Confidence is the two-sided CI level; 0 selects 0.95.
	Confidence float64
	// Tol is the relative CI half-width target applied to every output
	// pin. <=0 disables early stopping (full budget).
	Tol float64
}

// Estimate summarizes an adaptive run by its worst-converged output: the
// pin whose relative CI half-width was largest at the stopping point.
type Estimate struct {
	// Samples is the number of samples committed per output.
	Samples int
	// Output is the index (into g.Outputs()) of the worst-converged pin.
	Output int
	// Quantile and HalfWidth are that pin's q-quantile estimate and CI
	// half-width.
	Quantile, HalfWidth float64
	// Converged reports whether every output met the tolerance.
	Converged bool
}

// MonteCarloAdaptive is MonteCarloParallel with a sequential stopping
// rule: shards are committed in order and the run ends once every
// output's quantile CI half-width falls within Tol·|estimate| (or the
// budget is exhausted). Returns the per-output sample prefixes — exactly
// the first Samples columns of the MonteCarloParallel result.
func MonteCarloAdaptive(g *Graph, inputs map[PinID]variation.Form, space *variation.Space,
	opts AdaptiveOptions) ([][]float64, Estimate, error) {
	if opts.MaxSamples <= 0 {
		return nil, Estimate{}, fmt.Errorf("sta: adaptive MC sample cap %d must be positive", opts.MaxSamples)
	}
	if opts.Quantile <= 0 || opts.Quantile >= 1 {
		return nil, Estimate{}, fmt.Errorf("sta: adaptive MC quantile %g outside (0, 1)", opts.Quantile)
	}
	if opts.Confidence == 0 {
		opts.Confidence = 0.95
	}
	if opts.Confidence <= 0 || opts.Confidence >= 1 {
		return nil, Estimate{}, fmt.Errorf("sta: adaptive MC confidence %g outside (0, 1)", opts.Confidence)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, Estimate{}, err
	}
	outs := g.Outputs()
	if len(outs) == 0 {
		return nil, Estimate{}, fmt.Errorf("sta: adaptive MC on a graph with no outputs")
	}
	res := make([][]float64, len(outs))
	for i := range res {
		res[i] = make([]float64, opts.MaxSamples)
	}
	outIdx := make(map[PinID]int, len(outs))
	for i, id := range outs {
		outIdx[id] = i
	}

	// Fixed shard layout independent of the worker count (identical to
	// MonteCarloParallel).
	const shards = 16
	type shard struct {
		from, count int
		seed        int64
	}
	per := opts.MaxSamples / shards
	rem := opts.MaxSamples % shards
	plan := make([]shard, 0, shards)
	from := 0
	for i := 0; i < shards; i++ {
		count := per
		if i < rem {
			count++
		}
		if count == 0 {
			continue
		}
		plan = append(plan, shard{from: from, count: count, seed: opts.Seed + int64(i)})
		from += count
	}

	// Shards write disjoint column ranges of res, so speculative
	// evaluation up to `Workers` shards ahead of the committed frontier
	// is safe; in-flight shards are drained before returning so no
	// goroutine writes into res after the caller regains ownership.
	futures := make([]chan struct{}, len(plan))
	launched := 0
	launchThrough := func(limit int) {
		for ; launched < limit && launched < len(plan); launched++ {
			ch := make(chan struct{})
			futures[launched] = ch
			sh := plan[launched]
			go func() {
				sampleRange(g, inputs, space, order, outs, outIdx, res, sh.from, sh.count, sh.seed)
				close(ch)
			}()
		}
	}
	drain := func(from int) {
		for i := from; i < launched; i++ {
			<-futures[i]
		}
	}

	finish := func(n int, est Estimate) [][]float64 {
		trimmed := make([][]float64, len(res))
		for i := range res {
			trimmed[i] = res[i][:n:n]
		}
		return trimmed
	}

	// sorted[oi] is output oi's committed prefix in ascending order; each
	// shard's column range is sorted on its own and merged in.
	sorted := make([][]float64, len(res))
	for oi := range sorted {
		sorted[oi] = make([]float64, 0, opts.MaxSamples)
	}
	n := 0
	var est Estimate
	for i, sh := range plan {
		launchThrough(i + opts.Workers)
		<-futures[i]
		n = sh.from + sh.count

		// Evaluate every output; the run converges only when all do.
		worst := Estimate{Samples: n, Converged: true}
		worstRel := -1.0
		for oi := range res {
			sorted[oi] = stats.MergeSorted(sorted[oi], res[oi][sh.from:n])
			q, hw, qerr := stats.QuantileEstimate(sorted[oi], opts.Quantile, opts.Confidence)
			if qerr != nil {
				drain(i + 1)
				return nil, Estimate{}, qerr
			}
			scale := math.Abs(q)
			rel := hw
			if scale > 0 {
				rel = hw / scale
			}
			ok := opts.Tol > 0 && rel <= opts.Tol
			if !ok {
				worst.Converged = false
			}
			if rel > worstRel {
				worstRel = rel
				worst.Output = oi
				worst.Quantile = q
				worst.HalfWidth = hw
			}
		}
		est = worst
		if est.Converged {
			drain(i + 1)
			return finish(n, est), est, nil
		}
	}
	return finish(n, est), est, nil
}
