package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int{
		"p1": {269, 537}, "p2": {603, 1205},
		"r1": {267, 533}, "r2": {598, 1195}, "r3": {862, 1723},
		"r4": {1903, 3805}, "r5": {3101, 6201},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected bench %q", r.Name)
			continue
		}
		if r.Sinks != w[0] || r.Positions != w[1] {
			t.Errorf("%s: got (%d, %d), want (%d, %d)", r.Name, r.Sinks, r.Positions, w[0], w[1])
		}
	}
	var sb strings.Builder
	if err := RenderTable1(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "6201") {
		t.Error("render missing r5 positions")
	}
}

func TestTable2Shape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benches = []string{"p1"}
	cfg.FourPTimeout = 5e9 // 5s
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// s8..s64 plus p1.
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	finished := 0
	for _, r := range rows {
		if r.Time2P <= 0 {
			t.Errorf("%s: 2P did not run", r.Bench)
		}
		if r.Fail4P == "" {
			finished++
			if r.Speedup <= 0 {
				t.Errorf("%s: missing speedup", r.Bench)
			}
		}
	}
	// The 4P baseline must at least finish the smallest net, and the 2P
	// rule must finish everything (it always does — no Fail field exists).
	if finished == 0 {
		t.Error("4P finished nothing, cannot demonstrate the speedup column")
	}
	// The paper's shape: 4P hits its wall somewhere on the suite while 2P
	// cruises. With the quick caps the preset benchmark must be beyond 4P.
	last := rows[len(rows)-1]
	if last.Bench == "p1" && last.Fail4P == "" && last.Speedup < 5 {
		t.Errorf("p1: expected 4P to fail or be >=5x slower, got %.1fx", last.Speedup)
	}
	var sb strings.Builder
	if err := RenderTable2(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Speedup") {
		t.Error("render missing header")
	}
}

func TestFigure2Shape(t *testing.T) {
	curves, err := Figure2(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 6 {
		t.Fatalf("got %d curves", len(curves))
	}
	for _, c := range curves {
		if c.Probs[0] != 0.5 {
			t.Errorf("rho=%g ratio=%g: P at zero mean diff = %g, want 0.5", c.Rho, c.SigmaRatio, c.Probs[0])
		}
		for i := 1; i < len(c.Probs); i++ {
			if c.Probs[i] < c.Probs[i-1] {
				t.Fatalf("curve rho=%g not monotone", c.Rho)
			}
		}
		if c.Probs[len(c.Probs)-1] < 0.99 {
			t.Errorf("rho=%g ratio=%g: tail P = %g, want near 1", c.Rho, c.SigmaRatio, c.Probs[len(c.Probs)-1])
		}
	}
	// Equal sigmas: higher correlation makes the curve steeper (smaller
	// sigma_diff) — check at a mid-sweep point.
	mid := len(curves[0].Probs) / 3
	if !(curves[2].Probs[mid] > curves[1].Probs[mid] && curves[1].Probs[mid] > curves[0].Probs[mid]) {
		t.Error("equal-sigma curves not ordered by correlation")
	}
	var sb strings.Builder
	if err := RenderFigure2(&sb, curves); err != nil {
		t.Fatal(err)
	}
}

func TestFigure3Shape(t *testing.T) {
	cfg := QuickConfig()
	res, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit.KS > 0.08 {
		t.Errorf("KS = %g, first-order normal approximation should be close", res.Fit.KS)
	}
	if res.Fit.TbFit.R2 < 0.95 {
		t.Errorf("Tb fit R2 = %g", res.Fit.TbFit.R2)
	}
	// The extracted T_b variability justifies the headline BudgetFrac
	// (see Config.BudgetFrac): ~15% per 10% L_eff sigma.
	if res.Fit.TbRelSens < 0.10 || res.Fit.TbRelSens > 0.22 {
		t.Errorf("TbRelSens = %g, expected ~0.15", res.Fit.TbRelSens)
	}
	var sb strings.Builder
	if err := RenderFigure3(&sb, res); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5Shape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benches = []string{"p1", "r1", "r2", "r3"}
	// Time the serial engine. These benches span only 267–862 sinks, and
	// over that range the parallel engine's speedup on a two-CPU host
	// depends on tree shape (p1 and r1 have equal sink counts but not
	// equal speedups) about as much as runtime depends on sink count.
	cfg.Parallelism = 1
	res, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// Roughly linear runtime: good fit and positive slope.
	if res.Fit.Slope <= 0 {
		t.Errorf("runtime slope = %g", res.Fit.Slope)
	}
	if res.Fit.R2 < 0.8 {
		t.Errorf("runtime linearity R2 = %g, expected roughly linear", res.Fit.R2)
	}
	// The same claim on the machine-independent work count.
	for _, r := range res.Rows {
		if r.Generated <= 0 {
			t.Errorf("%s: generated = %d", r.Bench, r.Generated)
		}
	}
	if res.WorkFit.Slope <= 0 {
		t.Errorf("work slope = %g", res.WorkFit.Slope)
	}
	if res.WorkFit.R2 < 0.99 {
		t.Errorf("work linearity R2 = %g, expected linear", res.WorkFit.R2)
	}
	var sb strings.Builder
	if err := RenderFigure5(&sb, res); err != nil {
		t.Fatal(err)
	}
}

func TestFigure6Shape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benches = []string{"r1"}
	cfg.MCSamples = 4000
	res, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ModelMean-res.MCMean) > 0.01*math.Abs(res.ModelMean) {
		t.Errorf("model mean %.2f vs MC %.2f", res.ModelMean, res.MCMean)
	}
	if res.ModelSig > 0 && math.Abs(res.ModelSig-res.MCSig)/res.ModelSig > 0.15 {
		t.Errorf("model sigma %.2f vs MC %.2f", res.ModelSig, res.MCSig)
	}
	if res.KS > 0.06 {
		t.Errorf("KS = %g, model should predict the MC PDF closely", res.KS)
	}
	var sb strings.Builder
	if err := RenderFigure6(&sb, res); err != nil {
		t.Fatal(err)
	}
}

func TestYieldComparisonShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benches = []string{"r1", "r2"}
	het, err := YieldComparison(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	hom, err := YieldComparison(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	check := func(rows []YieldRow, tag string) (avgNOMDeg float64) {
		for _, r := range rows {
			// WID is the best design under its own model (small tolerance
			// for the canonical re-evaluation of the DP's pick).
			tol := 0.002 * math.Abs(r.WID.YieldRAT)
			if r.NOM.YieldRAT > r.WID.YieldRAT+tol {
				t.Errorf("%s %s: NOM yield-RAT %.1f better than WID %.1f",
					tag, r.Bench, r.NOM.YieldRAT, r.WID.YieldRAT)
			}
			if r.NOM.Yield > r.WID.Yield+0.02 {
				t.Errorf("%s %s: NOM yield %.3f above WID %.3f", tag, r.Bench, r.NOM.Yield, r.WID.Yield)
			}
			// Table 5 shape: WID never needs more buffers than NOM.
			if r.WID.Buffers > r.NOM.Buffers {
				t.Errorf("%s %s: WID buffers %d > NOM %d", tag, r.Bench, r.WID.Buffers, r.NOM.Buffers)
			}
			avgNOMDeg += r.NOM.RelDeg
		}
		return avgNOMDeg / float64(len(rows))
	}
	hetDeg := check(het, "hetero")
	check(hom, "homo")
	// NOM must degrade measurably under the heterogeneous model.
	if hetDeg > -0.001 {
		t.Errorf("hetero NOM average degradation %.4f, expected clearly negative", hetDeg)
	}
	var sb strings.Builder
	if err := RenderTable34(&sb, het, true); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable34(&sb, hom, false); err != nil {
		t.Fatal(err)
	}
	if err := RenderTable5(&sb, het); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 3") || !strings.Contains(sb.String(), "Table 5") {
		t.Error("renders missing titles")
	}
}

func TestPbarSweepSmall(t *testing.T) {
	cfg := QuickConfig()
	rows, err := PbarSweep(cfg, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// The paper reports <0.1% at its (smaller) effective variation
		// level; at the headline 15% budgets we allow up to 1%.
		if math.Abs(r.RelDiff) > 0.01 {
			t.Errorf("pbar %.2f: objective moved %.3f%%, expected near zero",
				r.Pbar, 100*r.RelDiff)
		}
	}
	var sb strings.Builder
	if err := RenderPbarSweep(&sb, "r1", rows); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityHTreeSmall(t *testing.T) {
	cfg := QuickConfig()
	cfg.HTreeLevels = 3
	res, err := CapacityHTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sinks != 64 {
		t.Errorf("sinks = %d, want 64", res.Sinks)
	}
	if res.Buffers == 0 {
		t.Error("no buffers inserted in the clock tree")
	}
	var sb strings.Builder
	if err := RenderCapacity(&sb, res); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	cfg := QuickConfig()
	cfg.Benches = []string{"p1"}
	cfg.MCSamples = 1000
	cfg.HTreeLevels = 3
	cfg.FourPTimeout = 5e9
	var sb strings.Builder
	if err := RunAll(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "Table 2", "Figure 2", "Figure 3",
		"Figure 5", "Figure 6", "Table 3", "Table 4", "Table 5", "pbar", "Capacity"} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}
