package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"vabuf/internal/benchgen"
	"vabuf/internal/core"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/report"
	"vabuf/internal/skew"
	"vabuf/internal/spice"
	"vabuf/internal/stats"
	"vabuf/internal/variation"
	"vabuf/internal/yield"
)

// BudgetRow is one point of the variation-budget ablation: how the
// NOM-versus-WID gap scales with the per-class budget.
type BudgetRow struct {
	Budget float64
	// AvgNOMDeg is the average relative yield-RAT degradation of NOM
	// versus WID across the benchmarks (negative = worse).
	AvgNOMDeg float64
	// AvgNOMYield and AvgWIDYield are at the 10%-reduced target.
	AvgNOMYield, AvgWIDYield float64
	// SigmaOverMean is the average relative RAT spread of the WID design.
	SigmaOverMean float64
}

// BudgetAblation reruns the Table 3 experiment at several per-class
// budgets, including the paper's literal 5% and the substrate-extracted
// 15% the headline tables use.
func BudgetAblation(cfg Config) ([]BudgetRow, error) {
	cfg = cfg.withDefaults()
	out := make([]BudgetRow, 0, 3)
	for _, budget := range []float64{0.05, 0.10, 0.15} {
		c := cfg
		c.BudgetFrac = budget
		rows, err := YieldComparison(c, true)
		if err != nil {
			return nil, fmt.Errorf("experiments: budget %.2f: %w", budget, err)
		}
		var r BudgetRow
		r.Budget = budget
		for _, row := range rows {
			r.AvgNOMDeg += row.NOM.RelDeg
			r.AvgNOMYield += row.NOM.Yield
			r.AvgWIDYield += row.WID.Yield
			r.SigmaOverMean += row.WID.Sigma / math.Abs(row.WID.Mean)
		}
		n := float64(len(rows))
		r.AvgNOMDeg /= n
		r.AvgNOMYield /= n
		r.AvgWIDYield /= n
		r.SigmaOverMean /= n
		out = append(out, r)
	}
	return out, nil
}

// RenderBudgetAblation renders the budget sweep.
func RenderBudgetAblation(w io.Writer, rows []BudgetRow) error {
	t := report.NewTable("Ablation: per-class variation budget (heterogeneous model)",
		"budget", "sigma/|mean|", "NOM vs WID RAT", "NOM yield", "WID yield")
	for _, r := range rows {
		t.AddRow(report.Pct(r.Budget, 0), report.Pct(r.SigmaOverMean, 1),
			fmt.Sprintf("%+.2f%%", 100*r.AvgNOMDeg),
			report.Pct(r.AvgNOMYield, 1), report.Pct(r.AvgWIDYield, 1))
	}
	return t.Render(w)
}

// WireSizingRow compares fixed-wire WID insertion against simultaneous
// buffer insertion and wire sizing (the [8] extension).
type WireSizingRow struct {
	Bench          string
	FixedYieldRAT  float64
	SizedYieldRAT  float64
	Improvement    float64 // relative improvement of the yield RAT
	FixedBuffers   int
	SizedBuffers   int
	SizedWideEdges int // edges assigned a non-default width
	Elapsed        time.Duration
}

// WireSizingAblation runs WID insertion with and without the wire library
// on each benchmark, evaluating both under the same model.
func WireSizingAblation(cfg Config) ([]WireSizingRow, error) {
	cfg = cfg.withDefaults()
	lib := library()
	wlib := rctree.DefaultWireLibrary()
	out := make([]WireSizingRow, 0, len(cfg.Benches))
	for _, name := range cfg.Benches {
		tr, err := benchgen.Build(name)
		if err != nil {
			return nil, err
		}
		wid, _, err := buildModels(tr, cfg.BudgetFrac, true)
		if err != nil {
			return nil, err
		}
		fixed, err := insertWID(tr, wid, cfg.YieldQuantile, cfg.Parallelism, cfg.Hull)
		if err != nil {
			return nil, err
		}
		wid2, _, err := buildModels(tr, cfg.BudgetFrac, true)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sized, err := core.Insert(tr, core.Options{
			Library:        lib,
			Model:          wid2,
			WireLibrary:    wlib,
			SelectQuantile: cfg.YieldQuantile,
			Parallelism:    cfg.Parallelism,
			HullBuffering:  cfg.Hull,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: wire sizing on %s: %w", name, err)
		}
		row := WireSizingRow{
			Bench:        name,
			FixedBuffers: fixed.NumBuffers,
			SizedBuffers: sized.NumBuffers,
			Elapsed:      time.Since(t0),
		}
		// Evaluate both under the FIXED-run model so quantiles compare.
		fixedRep, err := yield.Evaluate(tr, lib, fixed.Assignment, wid, cfg.YieldQuantile)
		if err != nil {
			return nil, err
		}
		wires := make(rctree.WireAssignment, len(sized.WireAssignment))
		for id, wi := range sized.WireAssignment {
			wires[id] = wlib[wi].Params
			if wi != 0 {
				row.SizedWideEdges++
			}
		}
		sizedRAT, err := yield.PropagateSized(tr, lib, sized.Assignment, wires, wid2)
		if err != nil {
			return nil, err
		}
		row.FixedYieldRAT = fixedRep.YieldRAT
		row.SizedYieldRAT = sizedRAT.Quantile(cfg.YieldQuantile, wid2.Space)
		row.Improvement = (row.SizedYieldRAT - row.FixedYieldRAT) / math.Abs(row.FixedYieldRAT)
		out = append(out, row)
	}
	return out, nil
}

// RenderWireSizing renders the wire-sizing ablation.
func RenderWireSizing(w io.Writer, rows []WireSizingRow) error {
	t := report.NewTable("Ablation: simultaneous buffer insertion and wire sizing ([8] extension)",
		"Bench", "fixed yield-RAT", "sized yield-RAT", "gain", "buffers", "widened edges", "runtime")
	for _, r := range rows {
		t.AddRow(r.Bench,
			report.F(r.FixedYieldRAT, 1), report.F(r.SizedYieldRAT, 1),
			fmt.Sprintf("%+.2f%%", 100*r.Improvement),
			fmt.Sprintf("%d→%d", r.FixedBuffers, r.SizedBuffers),
			fmt.Sprint(r.SizedWideEdges),
			fmt.Sprintf("%.2fs", r.Elapsed.Seconds()))
	}
	return t.Render(w)
}

// MinVarianceRow quantifies the design choice behind the canonical MIN:
// the paper's pure tightness blend (eq. 38) understates the variance of
// min(T1, T2); this library moment-matches it to Clark's exact value.
type MinVarianceRow struct {
	Rho float64
	// BlendVarRatio is E[Var_blend / Var_clark] over random pairs — below
	// 1 means the blend understates variance.
	BlendVarRatio float64
	// MatchedVarRatio is the same after moment matching (exactly 1).
	MatchedVarRatio float64
}

// MinVarianceAblation samples random correlated normal pairs and measures
// the variance deficit of the blend-only canonical MIN at several
// correlation levels.
func MinVarianceAblation(cfg Config) ([]MinVarianceRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]MinVarianceRow, 0, 3)
	for _, rho := range []float64{0, 0.5, 0.9} {
		var sumBlend, sumMatch float64
		const trials = 2000
		for i := 0; i < trials; i++ {
			space := variation.NewSpace()
			shared := space.Add(variation.ClassInterDie, 1)
			a := space.Add(variation.ClassRandom, 1)
			b := space.Add(variation.ClassRandom, 1)
			// Construct two unit-variance forms with correlation rho.
			sh := math.Sqrt(rho)
			ind := math.Sqrt(1 - rho)
			f := variation.NewForm(rng.NormFloat64(), []variation.Term{{ID: shared, Coef: sh}, {ID: a, Coef: ind}})
			g := variation.NewForm(rng.NormFloat64(), []variation.Term{{ID: shared, Coef: sh}, {ID: b, Coef: ind}})
			mom := stats.MinNormals(f.Nominal, 1, g.Nominal, 1, rho)
			if mom.Var <= 0 {
				continue
			}
			// Blend-only variance.
			t := mom.Tightness
			blend := f.Scale(t).Add(g.Scale(1 - t))
			sumBlend += blend.Var(space) / mom.Var
			// The library MIN (moment matched).
			matched := variation.Min(f, g, space)
			sumMatch += matched.Form.Var(space) / mom.Var
		}
		out = append(out, MinVarianceRow{
			Rho:             rho,
			BlendVarRatio:   sumBlend / trials,
			MatchedVarRatio: sumMatch / trials,
		})
	}
	return out, nil
}

// RenderMinVariance renders the canonical-MIN variance ablation.
func RenderMinVariance(w io.Writer, rows []MinVarianceRow) error {
	t := report.NewTable("Ablation: canonical MIN variance (blend of eq. 38 vs moment-matched)",
		"rho", "Var(blend)/Var(Clark)", "Var(matched)/Var(Clark)")
	for _, r := range rows {
		t.AddRow(report.F(r.Rho, 1), report.F(r.BlendVarRatio, 3), report.F(r.MatchedVarRatio, 3))
	}
	return t.Render(w)
}

// InverterRow compares plain buffer insertion against a library extended
// with inverters (polarity-aware insertion).
type InverterRow struct {
	Bench string
	// BufRAT and InvRAT are the WID yield-RATs without/with inverters.
	BufRAT, InvRAT float64
	Gain           float64
	// Inverters counts inverter instances in the combined-library design.
	Buffers, Inverters int
}

// InverterAblation runs WID insertion with the buffer library alone and
// with buffers + inverters, evaluating both under the same model.
func InverterAblation(cfg Config) ([]InverterRow, error) {
	cfg = cfg.withDefaults()
	bufLib := library()
	combined := append(append(device.Library{}, bufLib...), device.InverterLibrary()...)
	out := make([]InverterRow, 0, len(cfg.Benches))
	for _, name := range cfg.Benches {
		tr, err := benchgen.Build(name)
		if err != nil {
			return nil, err
		}
		wid, _, err := buildModels(tr, cfg.BudgetFrac, true)
		if err != nil {
			return nil, err
		}
		bufRes, err := insertWID(tr, wid, cfg.YieldQuantile, cfg.Parallelism, cfg.Hull)
		if err != nil {
			return nil, err
		}
		bufRep, err := yield.Evaluate(tr, bufLib, bufRes.Assignment, wid, cfg.YieldQuantile)
		if err != nil {
			return nil, err
		}
		wid2, _, err := buildModels(tr, cfg.BudgetFrac, true)
		if err != nil {
			return nil, err
		}
		invRes, err := core.Insert(tr, core.Options{
			Library:        combined,
			Model:          wid2,
			SelectQuantile: cfg.YieldQuantile,
			Parallelism:    cfg.Parallelism,
			HullBuffering:  cfg.Hull,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: inverter run on %s: %w", name, err)
		}
		invRep, err := yield.Evaluate(tr, combined, invRes.Assignment, wid2, cfg.YieldQuantile)
		if err != nil {
			return nil, err
		}
		row := InverterRow{
			Bench:  name,
			BufRAT: bufRep.YieldRAT,
			InvRAT: invRep.YieldRAT,
			Gain:   (invRep.YieldRAT - bufRep.YieldRAT) / math.Abs(bufRep.YieldRAT),
		}
		for _, bi := range invRes.Assignment {
			if combined[bi].Inverting {
				row.Inverters++
			} else {
				row.Buffers++
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderInverterAblation renders the inverter ablation.
func RenderInverterAblation(w io.Writer, rows []InverterRow) error {
	t := report.NewTable("Ablation: polarity-aware insertion (buffers vs buffers + inverters)",
		"Bench", "buffer-only yield-RAT", "with inverters", "gain", "buffers+inverters")
	for _, r := range rows {
		t.AddRow(r.Bench, report.F(r.BufRAT, 1), report.F(r.InvRAT, 1),
			fmt.Sprintf("%+.2f%%", 100*r.Gain),
			fmt.Sprintf("%d+%d", r.Buffers, r.Inverters))
	}
	return t.Render(w)
}

// CornerRow compares the traditional corner methodology against
// statistical design: a design optimized against the pessimistic SS
// corner library versus the WID statistical design, both evaluated under
// the same statistical model with typical (TT) devices.
type CornerRow struct {
	Bench string
	// CornerRAT and WIDRAT are the yield-RATs of the SS-corner design and
	// the statistical design under the TT statistical model.
	CornerRAT, WIDRAT float64
	// Penalty is how much the corner design gives up versus WID
	// (negative = worse).
	Penalty float64
	// CornerBuffers and WIDBuffers count inserted buffers: corner designs
	// over-provision against a pessimism that mostly never happens.
	CornerBuffers, WIDBuffers int
}

// CornerAblation runs the corner-vs-statistical comparison on each
// benchmark.
func CornerAblation(cfg Config) ([]CornerRow, error) {
	cfg = cfg.withDefaults()
	ttLib := library()
	ssLib, err := device.CornerLibrary([]float64{2, 4, 8, 16}, spice.CornerSS)
	if err != nil {
		return nil, err
	}
	out := make([]CornerRow, 0, len(cfg.Benches))
	for _, name := range cfg.Benches {
		tr, err := benchgen.Build(name)
		if err != nil {
			return nil, err
		}
		// Corner flow: deterministic insertion believing the SS values.
		cornerRes, err := core.Insert(tr, core.Options{Library: ssLib, Parallelism: cfg.Parallelism, HullBuffering: cfg.Hull})
		if err != nil {
			return nil, fmt.Errorf("experiments: SS corner on %s: %w", name, err)
		}
		// Statistical flow: WID under the TT model.
		wid, _, err := buildModels(tr, cfg.BudgetFrac, true)
		if err != nil {
			return nil, err
		}
		widRes, err := insertWID(tr, wid, cfg.YieldQuantile, cfg.Parallelism, cfg.Hull)
		if err != nil {
			return nil, err
		}
		// Both evaluated with TT devices under the same model. The corner
		// design keeps its buffer *positions and sizes* but the silicon is
		// typical.
		cornerRep, err := yield.Evaluate(tr, ttLib, cornerRes.Assignment, wid, cfg.YieldQuantile)
		if err != nil {
			return nil, err
		}
		widRep, err := yield.Evaluate(tr, ttLib, widRes.Assignment, wid, cfg.YieldQuantile)
		if err != nil {
			return nil, err
		}
		out = append(out, CornerRow{
			Bench:         name,
			CornerRAT:     cornerRep.YieldRAT,
			WIDRAT:        widRep.YieldRAT,
			Penalty:       (cornerRep.YieldRAT - widRep.YieldRAT) / math.Abs(widRep.YieldRAT),
			CornerBuffers: cornerRes.NumBuffers,
			WIDBuffers:    widRes.NumBuffers,
		})
	}
	return out, nil
}

// RenderCornerAblation renders the corner-methodology comparison.
func RenderCornerAblation(w io.Writer, rows []CornerRow) error {
	t := report.NewTable("Ablation: SS-corner design vs statistical design (evaluated at TT under the model)",
		"Bench", "corner yield-RAT", "WID yield-RAT", "corner penalty", "buffers corner/WID")
	for _, r := range rows {
		t.AddRow(r.Bench, report.F(r.CornerRAT, 1), report.F(r.WIDRAT, 1),
			fmt.Sprintf("%+.2f%%", 100*r.Penalty),
			fmt.Sprintf("%d/%d", r.CornerBuffers, r.WIDBuffers))
	}
	return t.Render(w)
}

// SkewRow is the clock-skew extension experiment (§6 future work).
type SkewRow struct {
	Sinks          int
	UnbufferedSkew float64
	// DetSkewQ and StatSkewQ are the 95%-tile skews (under the full
	// model) of the deterministic and variation-aware designs; DetObj and
	// StatObj are the combined objectives both optimizers actually
	// minimize (95% skew + 0.2 · 95% latency), evaluated under the model.
	DetSkewQ, StatSkewQ     float64
	DetObj, StatObj         float64
	DetBuffers, StatBuffers int
}

// SkewExtension optimizes unbalanced clock nets for skew, deterministic
// versus variation-aware, and evaluates both under the full model.
func SkewExtension(cfg Config) ([]SkewRow, error) {
	cfg = cfg.withDefaults()
	lib := library()
	out := make([]SkewRow, 0, 2)
	for _, sinks := range []int{16, 24} {
		tr, err := benchgen.Random(benchgen.Spec{
			Name: "clk", Sinks: sinks, Seed: cfg.Seed + int64(sinks),
			RATSpread: -1, DieSide: 12000,
		})
		if err != nil {
			return nil, err
		}
		wid, _, err := buildModels(tr, cfg.BudgetFrac, true)
		if err != nil {
			return nil, err
		}
		bare, _, err := skew.Propagate(tr, lib, nil, nil)
		if err != nil {
			return nil, err
		}
		det, err := skew.Minimize(tr, skew.Options{Library: lib, LatencyWeight: 0.2})
		if err != nil {
			return nil, err
		}
		stat, err := skew.Minimize(tr, skew.Options{
			Library: lib, Model: wid, LatencyWeight: 0.2, Epsilon: 0.5,
		})
		if err != nil {
			return nil, err
		}
		detSkew, detLat, err := skew.Propagate(tr, lib, det.Assignment, wid)
		if err != nil {
			return nil, err
		}
		statSkew, statLat, err := skew.Propagate(tr, lib, stat.Assignment, wid)
		if err != nil {
			return nil, err
		}
		detSkewQ := detSkew.Quantile(0.95, wid.Space)
		statSkewQ := statSkew.Quantile(0.95, wid.Space)
		out = append(out, SkewRow{
			Sinks:          sinks,
			UnbufferedSkew: bare.Nominal,
			DetSkewQ:       detSkewQ,
			StatSkewQ:      statSkewQ,
			DetObj:         detSkewQ + 0.2*detLat.Quantile(0.95, wid.Space),
			StatObj:        statSkewQ + 0.2*statLat.Quantile(0.95, wid.Space),
			DetBuffers:     det.NumBuffers,
			StatBuffers:    stat.NumBuffers,
		})
	}
	return out, nil
}

// RenderSkewExtension renders the clock-skew extension experiment.
func RenderSkewExtension(w io.Writer, rows []SkewRow) error {
	t := report.NewTable("Extension (§6 future work): variation-aware clock-skew minimization",
		"sinks", "unbuffered skew", "det 95% skew", "va 95% skew",
		"det objective", "va objective", "buffers det/va")
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Sinks), report.F(r.UnbufferedSkew, 1),
			report.F(r.DetSkewQ, 1), report.F(r.StatSkewQ, 1),
			report.F(r.DetObj, 1), report.F(r.StatObj, 1),
			fmt.Sprintf("%d/%d", r.DetBuffers, r.StatBuffers))
	}
	return t.Render(w)
}
