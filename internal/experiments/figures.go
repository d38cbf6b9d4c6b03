package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/report"
	"vabuf/internal/spice"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
	"vabuf/internal/yield"
)

// Figure2Curve is one P(T1 > T2) curve for a (rho, sigma-ratio) setting.
type Figure2Curve struct {
	Rho        float64
	SigmaRatio float64 // sigma1 / sigma2
	MeanDiffs  []float64
	Probs      []float64
}

// Figure2 evaluates eq. 8 over a mean-difference sweep for the paper's six
// settings: rho in {0, 0.5, 0.9} with sigma1 = sigma2 and sigma1 = 3*sigma2.
func Figure2(cfg Config) ([]Figure2Curve, error) {
	cfg = cfg.withDefaults()
	const sigma2 = 1.0
	var out []Figure2Curve
	for _, ratio := range []float64{1, 3} {
		for _, rho := range []float64{0, 0.5, 0.9} {
			c := Figure2Curve{Rho: rho, SigmaRatio: ratio}
			for d := 0.0; d <= 8.0001; d += 0.25 {
				c.MeanDiffs = append(c.MeanDiffs, d)
				c.Probs = append(c.Probs, stats.ProbGreater(d, ratio*sigma2, 0, sigma2, rho))
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// RenderFigure2 plots the curves.
func RenderFigure2(w io.Writer, curves []Figure2Curve) error {
	p := report.NewLinePlot("Figure 2: P(T1 > T2) vs mean difference (eq. 8)",
		"mu_T1 - mu_T2", "P(T1 > T2)")
	marks := []rune{'a', 'b', 'c', 'd', 'e', 'f'}
	for i, c := range curves {
		if err := p.Add(marks[i%len(marks)], c.MeanDiffs, c.Probs); err != nil {
			return err
		}
	}
	if err := p.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "marks: a/b/c = rho 0/0.5/0.9 at sigma1=sigma2; d/e/f = same at sigma1=3*sigma2\n")
	return err
}

// Figure3Result is the device-fitting experiment: the nonlinear substrate
// sampled under L_eff variation versus the first-order normal model.
type Figure3Result struct {
	Fit *device.FitResult
	// Hist is the "SPICE-extracted PDF" histogram of T_b samples.
	Hist *stats.Histogram
}

// Figure3 runs the §3.1 pipeline: L_eff ~ N(Lnom, 10% Lnom), 2000 samples
// through the transient substrate, least-squares first-order fit, and the
// PDF comparison.
func Figure3(cfg Config) (*Figure3Result, error) {
	cfg = cfg.withDefaults()
	n := cfg.MCSamples / 5
	if n < 200 {
		n = 200
	}
	fit, err := device.Extract(spice.Default65nm(4), 0.10, n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	hist, err := stats.HistogramOf(fit.TbSamples, 40)
	if err != nil {
		return nil, err
	}
	return &Figure3Result{Fit: fit, Hist: hist}, nil
}

// RenderFigure3 plots the sampled PDF against the fitted normal.
func RenderFigure3(w io.Writer, res *Figure3Result) error {
	p := report.NewLinePlot("Figure 3: Normal approximation of T_b vs substrate-extracted PDF",
		"T_b (ps)", "density")
	xs := make([]float64, len(res.Hist.Counts))
	emp := res.Hist.PDF()
	model := make([]float64, len(xs))
	for i := range xs {
		xs[i] = res.Hist.BinCenter(i)
		model[i] = stats.NormalPDF(xs[i], res.Fit.TbMean, res.Fit.TbSigma)
	}
	if err := p.Add('#', xs, emp); err != nil {
		return err
	}
	if err := p.Add('o', xs, model); err != nil {
		return err
	}
	if err := p.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"# = sampled substrate PDF, o = first-order normal model; KS distance %.4f, Tb fit R^2 %.4f, rel sens: Cb %.1f%%, Tb %.1f%%\n",
		res.Fit.KS, res.Fit.TbFit.R2, 100*res.Fit.CbRelSens, 100*res.Fit.TbRelSens)
	return err
}

// figure5Runs is the number of timed rounds in Figure 5; a row reports
// the median of its benchmark's runs, so one GC pause or scheduler
// hiccup cannot move a point.
const figure5Runs = 3

// Figure5Row is one point of the runtime-scaling experiment.
type Figure5Row struct {
	Bench string
	Sinks int
	// Elapsed is the median wall time of figure5Runs timed runs.
	Elapsed time.Duration
	// Generated is the run's candidate count (core.Stats.Generated), the
	// machine-independent measure of the same DP work.
	Generated int64
}

// Figure5Result carries the sweep and the linear fit quality.
type Figure5Result struct {
	Rows []Figure5Row
	// Fit is runtime (s) versus sinks; R2 close to 1 backs the paper's
	// "roughly linear runtime scalability" claim.
	Fit stats.LinearFit
	// WorkFit is candidates generated versus sinks: the same claim
	// checked on a count that does not depend on the machine.
	WorkFit stats.LinearFit
}

// Figure5 times the full-library 2P WID optimization across the benchmark
// suite and fits runtime and work against sink count. Each benchmark runs
// once untimed; then each of figure5Runs rounds times every benchmark
// once, after a runtime.GC each, so a burst of outside load lands on all
// points of a round rather than on every run of one point.
func Figure5(cfg Config) (*Figure5Result, error) {
	cfg = cfg.withDefaults()
	type bench struct {
		tree  *rctree.Tree
		model *variation.Model
		times []time.Duration
	}
	res := &Figure5Result{}
	benches := make([]bench, len(cfg.Benches))
	for i, name := range cfg.Benches {
		tr, err := benchgen.Build(name)
		if err != nil {
			return nil, err
		}
		wid, _, err := buildModels(tr, cfg.BudgetFrac, true)
		if err != nil {
			return nil, err
		}
		run, err := insertWID(tr, wid, cfg.YieldQuantile, cfg.Parallelism, cfg.Hull)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 5 on %s: %w", name, err)
		}
		benches[i] = bench{tree: tr, model: wid, times: make([]time.Duration, figure5Runs)}
		res.Rows = append(res.Rows, Figure5Row{Bench: name, Sinks: tr.NumSinks(), Generated: run.Stats.Generated})
	}
	for r := range figure5Runs {
		for i, b := range benches {
			runtime.GC()
			t0 := time.Now()
			if _, err := insertWID(b.tree, b.model, cfg.YieldQuantile, cfg.Parallelism, cfg.Hull); err != nil {
				return nil, fmt.Errorf("experiments: figure 5 on %s: %w", res.Rows[i].Bench, err)
			}
			b.times[r] = time.Since(t0)
		}
	}
	var xs, ys, ws []float64
	for i, b := range benches {
		slices.Sort(b.times)
		res.Rows[i].Elapsed = b.times[len(b.times)/2]
		xs = append(xs, float64(res.Rows[i].Sinks))
		ys = append(ys, res.Rows[i].Elapsed.Seconds())
		ws = append(ws, float64(res.Rows[i].Generated))
	}
	if len(xs) >= 2 {
		fit, err := stats.FitLine(xs, ys)
		if err != nil {
			return nil, err
		}
		res.Fit = fit
		if res.WorkFit, err = stats.FitLine(xs, ws); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// RenderFigure5 plots runtime versus sinks.
func RenderFigure5(w io.Writer, res *Figure5Result) error {
	p := report.NewLinePlot("Figure 5: Runtime versus total number of sinks (2P rule)",
		"sinks", "runtime (s)")
	xs := make([]float64, len(res.Rows))
	ys := make([]float64, len(res.Rows))
	for i, r := range res.Rows {
		xs[i] = float64(r.Sinks)
		ys[i] = r.Elapsed.Seconds()
	}
	if err := p.Add('*', xs, ys); err != nil {
		return err
	}
	if err := p.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "linear fit: t = %.3g + %.3g*sinks (R^2 = %.4f)\n"+
		"work fit: candidates = %.4g + %.4g*sinks (R^2 = %.4f)\n",
		res.Fit.Intercept, res.Fit.Slope, res.Fit.R2,
		res.WorkFit.Intercept, res.WorkFit.Slope, res.WorkFit.R2)
	return err
}

// Figure6Result compares the canonical RAT distribution at the root of the
// largest WID-buffered benchmark against Monte-Carlo ground truth.
type Figure6Result struct {
	Bench               string
	ModelMean, ModelSig float64
	MCMean, MCSig       float64
	KS                  float64
	Hist                *stats.Histogram
	Samples             int
}

// Figure6 optimizes the largest configured benchmark under the WID model,
// then evaluates the buffered tree by canonical propagation and by
// cfg.MCSamples-sample Monte Carlo.
func Figure6(cfg Config) (*Figure6Result, error) {
	cfg = cfg.withDefaults()
	name := cfg.Benches[len(cfg.Benches)-1]
	tr, err := benchgen.Build(name)
	if err != nil {
		return nil, err
	}
	wid, _, err := buildModels(tr, cfg.BudgetFrac, true)
	if err != nil {
		return nil, err
	}
	res, err := insertWID(tr, wid, cfg.YieldQuantile, cfg.Parallelism, cfg.Hull)
	if err != nil {
		return nil, err
	}
	samples, err := yield.MonteCarloParallel(tr, library(), res.Assignment, nil, wid, cfg.MCSamples, cfg.Seed, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	mean, v := stats.MeanVar(samples)
	ks, err := stats.KSNormal(samples, res.Mean, res.Sigma)
	if err != nil {
		return nil, err
	}
	hist, err := stats.HistogramOf(samples, 40)
	if err != nil {
		return nil, err
	}
	return &Figure6Result{
		Bench:     name,
		ModelMean: res.Mean,
		ModelSig:  res.Sigma,
		MCMean:    mean,
		MCSig:     math.Sqrt(v),
		KS:        ks,
		Hist:      hist,
		Samples:   len(samples),
	}, nil
}

// RenderFigure6 plots both PDFs.
func RenderFigure6(w io.Writer, res *Figure6Result) error {
	p := report.NewLinePlot(
		fmt.Sprintf("Figure 6: RAT at the root of %s — model vs Monte Carlo (%d samples)",
			res.Bench, res.Samples),
		"RAT (ps)", "density")
	xs := make([]float64, len(res.Hist.Counts))
	emp := res.Hist.PDF()
	model := make([]float64, len(xs))
	for i := range xs {
		xs[i] = res.Hist.BinCenter(i)
		model[i] = stats.NormalPDF(xs[i], res.ModelMean, res.ModelSig)
	}
	if err := p.Add('#', xs, emp); err != nil {
		return err
	}
	if err := p.Add('o', xs, model); err != nil {
		return err
	}
	if err := p.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"# = Monte Carlo, o = model; model N(%.1f, %.2f) vs MC N(%.1f, %.2f), KS %.4f\n",
		res.ModelMean, res.ModelSig, res.MCMean, res.MCSig, res.KS)
	return err
}
