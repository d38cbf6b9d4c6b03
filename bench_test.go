// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each BenchmarkTableN / BenchmarkFigureN runs the
// corresponding experiment end to end at a downsized configuration so the
// whole suite completes in minutes; `cmd/experiments` runs the full-size
// versions recorded in EXPERIMENTS.md. Additional micro-benchmarks time
// the DP engines themselves on the Table 1 presets.
package vabuf_test

import (
	"io"
	"testing"

	"vabuf"
	"vabuf/internal/experiments"
)

// benchCfg is the downsized configuration for the table/figure benchmarks.
func benchCfg() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Benches = []string{"p1", "r1"}
	cfg.MCSamples = 2000
	cfg.FourPTimeout = 5e9 // 5s
	cfg.HTreeLevels = 4
	return cfg
}

func BenchmarkTable1Characteristics(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderTable1(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2FourPVersus2P(b *testing.B) {
	cfg := benchCfg()
	cfg.Benches = []string{"p1"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderTable2(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3HeterogeneousYield(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.YieldComparison(cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderTable34(io.Discard, rows, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4HomogeneousYield(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.YieldComparison(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderTable34(io.Discard, rows, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5BufferCounts(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.YieldComparison(cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderTable5(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2ProbabilityCurves(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFigure2(io.Discard, curves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3DeviceFit(b *testing.B) {
	cfg := benchCfg()
	cfg.MCSamples = 1500 // -> 300 device simulations
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFigure3(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5RuntimeScaling(b *testing.B) {
	cfg := benchCfg()
	cfg.Benches = []string{"p1", "r1", "r2"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFigure5(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6ModelVersusMC(b *testing.B) {
	cfg := benchCfg()
	cfg.Benches = []string{"r1"}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderFigure6(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPbarSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PbarSweep(cfg, "p1")
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderPbarSweep(io.Discard, "p1", rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCapacityHTree(b *testing.B) {
	cfg := benchCfg()
	cfg.HTreeLevels = 5 // 1024 sinks per iteration
	for i := 0; i < b.N; i++ {
		res, err := experiments.CapacityHTree(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderCapacity(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBudget(b *testing.B) {
	cfg := benchCfg()
	cfg.Benches = []string{"r1"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BudgetAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderBudgetAblation(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWireSizing(b *testing.B) {
	cfg := benchCfg()
	cfg.Benches = []string{"r1"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WireSizingAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderWireSizing(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInverters(b *testing.B) {
	cfg := benchCfg()
	cfg.Benches = []string{"r1"}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.InverterAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderInverterAblation(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMinVariance(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MinVarianceAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderMinVariance(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionSkew(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SkewExtension(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RenderSkewExtension(io.Discard, rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloSerial(b *testing.B) {
	tree, model, lib, assign := mcSetup(b, "r1", true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vabuf.MonteCarloRAT(tree, lib, assign, model, 2000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloParallel(b *testing.B) {
	tree, model, lib, assign := mcSetup(b, "r1", true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vabuf.MonteCarloRATParallel(tree, lib, assign, model, 2000, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMCr3 pits the adaptive sampler against its own full budget on the
// r3 buffered tree: tol > 0 stops at a 1% relative CI half-width on the
// 5% quantile, tol = 0 burns every sample. The "samples" metric is the
// early-stopping signal scripts/bench.sh snapshots into BENCH_core.json.
// heterogeneous picks mcSetup's model; under the homogeneous one, buffers
// in one grid cell share every deviation term but their random one.
func benchMCr3(b *testing.B, tol float64, heterogeneous bool) {
	tree, model, lib, assign := mcSetup(b, "r3", heterogeneous)
	const budget = 32768
	var samples int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, est, err := vabuf.MonteCarloRATAdaptive(tree, lib, assign, model, vabuf.MCAdaptiveOptions{
			MaxSamples: budget,
			Seed:       1,
			Quantile:   0.05,
			Tol:        tol,
		})
		if err != nil {
			b.Fatal(err)
		}
		if tol > 0 && !est.Converged {
			b.Fatalf("no convergence to tol %g within %d samples", tol, budget)
		}
		samples = est.Samples
	}
	b.ReportMetric(float64(samples), "samples")
}

func BenchmarkMCR3Adaptive(b *testing.B)         { benchMCr3(b, 0.01, true) }
func BenchmarkMCR3Fixed(b *testing.B)            { benchMCr3(b, 0, true) }
func BenchmarkMCR3FixedHomogeneous(b *testing.B) { benchMCr3(b, 0, false) }

// mcSetup buffers a benchmark net for Monte-Carlo runs. heterogeneous
// selects the heterogeneous model with 15% budgets per class; otherwise
// the model is the default homogeneous one.
func mcSetup(b *testing.B, bench string, heterogeneous bool) (*vabuf.Tree, *vabuf.VariationModel, vabuf.Library, map[vabuf.NodeID]int) {
	b.Helper()
	tree, err := vabuf.GenerateBenchmark(bench)
	if err != nil {
		b.Fatal(err)
	}
	cfg := vabuf.DefaultModelConfig(tree)
	if heterogeneous {
		cfg.Heterogeneous = true
		cfg.RandomFrac, cfg.SpatialFrac, cfg.InterDieFrac = 0.15, 0.15, 0.15
	}
	model, err := vabuf.NewVariationModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	res, err := vabuf.Insert(tree, vabuf.Options{Library: lib, Model: model})
	if err != nil {
		b.Fatal(err)
	}
	return tree, model, lib, res.Assignment
}

// --- micro-benchmarks of the DP engines on the Table 1 presets ---

func benchInsert(b *testing.B, bench string, variationAware bool) {
	benchInsertP(b, bench, variationAware, 0)
}

// benchInsertP pins the engine parallelism: 1 is the serial baseline, >1
// exercises the subtree worker pool (results are identical either way).
func benchInsertP(b *testing.B, bench string, variationAware bool, parallelism int) {
	tree, err := vabuf.GenerateBenchmark(bench)
	if err != nil {
		b.Fatal(err)
	}
	lib := vabuf.DefaultLibrary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := vabuf.Options{Library: lib, Parallelism: parallelism}
		if variationAware {
			b.StopTimer()
			cfg := vabuf.DefaultModelConfig(tree)
			cfg.Heterogeneous = true
			cfg.RandomFrac, cfg.SpatialFrac, cfg.InterDieFrac = 0.15, 0.15, 0.15
			model, err := vabuf.NewVariationModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			opts.Model = model
			b.StartTimer()
		}
		res, err := vabuf.Insert(tree, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.NumBuffers == 0 {
			b.Fatal("no buffers inserted")
		}
	}
}

func BenchmarkInsertNOMp1(b *testing.B) { benchInsert(b, "p1", false) }
func BenchmarkInsertNOMr3(b *testing.B) { benchInsert(b, "r3", false) }
func BenchmarkInsertNOMr5(b *testing.B) { benchInsert(b, "r5", false) }
func BenchmarkInsertWIDp1(b *testing.B) { benchInsert(b, "p1", true) }
func BenchmarkInsertWIDr3(b *testing.B) { benchInsert(b, "r3", true) }
func BenchmarkInsertWIDr5(b *testing.B) { benchInsert(b, "r5", true) }

// Serial/parallel pairs on the multi-sink benchmarks: the scripts/bench.sh
// snapshot tracks their ratio as the parallel-speedup signal.
func BenchmarkInsertWIDr3Serial(b *testing.B) { benchInsertP(b, "r3", true, 1) }
func BenchmarkInsertWIDr3Par4(b *testing.B)   { benchInsertP(b, "r3", true, 4) }
func BenchmarkInsertWIDr5Serial(b *testing.B) { benchInsertP(b, "r5", true, 1) }
func BenchmarkInsertWIDr5Par4(b *testing.B)   { benchInsertP(b, "r5", true, 4) }
