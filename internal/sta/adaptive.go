package sta

// Early-stopping Monte Carlo for timing graphs: the shards of
// stats.ShardPlan — the layout MonteCarloParallel runs — committed
// strictly in plan order through stats.RunShards, with a
// distribution-free confidence interval per output pin. The run stops at
// the first shard boundary where EVERY output's q-quantile CI half-width
// is inside the requested relative tolerance, so multi-output graphs
// converge on their slowest-converging pin.

import (
	"fmt"
	"math"

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
// output's relative quantile CI half-width, halfWidth/|estimate| (the
// bare half-width when the estimate is 0), is at most Tol, or the budget
// is exhausted. Up to opts.Workers shards are evaluated ahead of
// the commit frontier; those past the stopping point are discarded.
// Returns the per-output sample prefixes — exactly the first Samples
// columns of the MonteCarloParallel result.
func MonteCarloAdaptive(g *Graph, inputs map[PinID]variation.Form, space *variation.Space,
	opts AdaptiveOptions) ([][]float64, Estimate, error) {
	conf, err := stats.CheckAdaptive(opts.MaxSamples, opts.Quantile, opts.Confidence)
	if err != nil {
		return nil, Estimate{}, fmt.Errorf("sta: %w", err)
	}
	m, err := prepareMC(g, inputs, space, opts.MaxSamples)
	if err != nil {
		return nil, Estimate{}, err
	}
	if len(m.outs) == 0 {
		return nil, Estimate{}, fmt.Errorf("sta: adaptive MC on a graph with no outputs")
	}

	// sorted[oi] is output oi's committed prefix in ascending order; each
	// shard's column range is sorted on its own and merged in.
	sorted := make([][]float64, len(m.res))
	for oi := range sorted {
		sorted[oi] = make([]float64, 0, opts.MaxSamples)
	}
	var est Estimate
	err = stats.RunShards(stats.ShardPlan(opts.MaxSamples, opts.Seed), opts.Workers, m.sample,
		func(sh stats.Shard) (bool, error) {
			// Evaluate every output; the run converges only when all do.
			worst := Estimate{Samples: sh.End(), Converged: true}
			worstRel := -1.0
			for oi, col := range m.res {
				sorted[oi] = stats.MergeSorted(sorted[oi], col[sh.From:sh.End()])
				q, hw, err := stats.QuantileEstimate(sorted[oi], opts.Quantile, conf)
				if err != nil {
					return true, err
				}
				rel := hw
				if scale := math.Abs(q); scale > 0 {
					rel = hw / scale
				}
				if !(opts.Tol > 0 && rel <= opts.Tol) {
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
			return est.Converged, nil
		})
	if err != nil {
		return nil, Estimate{}, err
	}
	trimmed := make([][]float64, len(m.res))
	for i, col := range m.res {
		trimmed[i] = col[:est.Samples:est.Samples]
	}
	return trimmed, est, nil
}
