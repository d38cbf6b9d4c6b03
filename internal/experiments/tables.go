package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"vabuf/internal/benchgen"
	"vabuf/internal/core"
	"vabuf/internal/rctree"
	"vabuf/internal/report"
	"vabuf/internal/stats"
	"vabuf/internal/yield"
)

// Table1Row is one benchmark-characteristics row.
type Table1Row struct {
	Name      string
	Sinks     int
	Positions int
}

// Table1 regenerates the benchmark suite and reports its characteristics.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	out := make([]Table1Row, 0, len(cfg.Benches))
	for _, name := range cfg.Benches {
		tr, err := benchgen.Build(name)
		if err != nil {
			return nil, err
		}
		out = append(out, Table1Row{
			Name:      name,
			Sinks:     tr.NumSinks(),
			Positions: tr.NumBufferPositions(),
		})
	}
	return out, nil
}

// RenderTable1 renders Table 1 rows.
func RenderTable1(w io.Writer, rows []Table1Row) error {
	t := report.NewTable("Table 1: Characteristics of benchmarks", "Bench", "Sinks", "Buffer Positions")
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprint(r.Sinks), fmt.Sprint(r.Positions))
	}
	return t.Render(w)
}

// Table2Row compares the 4P baseline against the 2P rule on one tree.
type Table2Row struct {
	Bench string
	Sinks int
	// Time4P is valid when Fail4P is empty; Fail4P records "capacity" or
	// "timeout" (the paper's "-" entries).
	Time4P  time.Duration
	Fail4P  string
	Time2P  time.Duration
	Speedup float64 // Time4P / Time2P when both finished
}

// Table2 runs RAT optimization under the WID model with the 4P and 2P
// rules. To give the 4P baseline a chance to finish anything (its partial
// order is combinatorial in the library size), the comparison uses a
// truncated library of cfg.FourPLibSize types for both rules; small
// generated nets (s8–s64) are prepended so the speedup is measurable
// before 4P hits its capacity wall, mirroring how [7] only reached tiny
// trees.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	lib := library()[:min(cfg.FourPLibSize, len(library()))]
	type entry struct {
		name string
		tree func() (*treeT, error)
	}
	var entries []entry
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		entries = append(entries, entry{
			name: fmt.Sprintf("s%d", n),
			tree: func() (*treeT, error) {
				return benchgen.Random(benchgen.Spec{Name: fmt.Sprintf("s%d", n), Sinks: n, Seed: cfg.Seed + int64(n)})
			},
		})
	}
	for _, name := range cfg.Benches {
		name := name
		entries = append(entries, entry{name: name, tree: func() (*treeT, error) { return benchgen.Build(name) }})
	}
	out := make([]Table2Row, 0, len(entries))
	for _, e := range entries {
		tr, err := e.tree()
		if err != nil {
			return nil, err
		}
		wid, _, err := buildModels(tr, cfg.BudgetFrac, true)
		if err != nil {
			return nil, err
		}
		row := Table2Row{Bench: e.name, Sinks: tr.NumSinks()}

		ctx, cancel := context.WithTimeout(context.Background(), cfg.FourPTimeout)
		t0 := time.Now()
		_, err = core.Insert(tr, core.Options{
			Library:        lib,
			Model:          wid,
			Rule:           core.Rule4P,
			MaxCandidates:  cfg.FourPMaxCandidates,
			SelectQuantile: cfg.YieldQuantile,
			Parallelism:    cfg.Parallelism,
			HullBuffering:  cfg.Hull,
			Context:        ctx,
		})
		cancel()
		switch {
		case err == nil:
			row.Time4P = time.Since(t0)
		case errors.Is(err, core.ErrCapacity):
			row.Fail4P = "capacity"
		case errors.Is(err, core.ErrTimeout):
			row.Fail4P = "timeout"
		default:
			return nil, fmt.Errorf("experiments: 4P on %s: %w", e.name, err)
		}

		// A fresh model keeps the source spaces of the two runs independent.
		wid2, _, err := buildModels(tr, cfg.BudgetFrac, true)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if _, err := core.Insert(tr, core.Options{
			Library:        lib,
			Model:          wid2,
			SelectQuantile: cfg.YieldQuantile,
			Parallelism:    cfg.Parallelism,
			HullBuffering:  cfg.Hull,
		}); err != nil {
			return nil, fmt.Errorf("experiments: 2P on %s: %w", e.name, err)
		}
		row.Time2P = time.Since(t0)
		if row.Fail4P == "" && row.Time2P > 0 {
			row.Speedup = float64(row.Time4P) / float64(row.Time2P)
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderTable2 renders Table 2 rows.
func RenderTable2(w io.Writer, rows []Table2Row) error {
	t := report.NewTable("Table 2: Runtime comparison (seconds), 4P baseline vs 2P rule",
		"Bench", "Sinks", "4P", "2P", "Speedup")
	for _, r := range rows {
		t4 := "-(" + r.Fail4P + ")"
		sp := "-"
		if r.Fail4P == "" {
			t4 = report.F(r.Time4P.Seconds(), 3)
			sp = report.F(r.Speedup, 1) + "x"
		}
		t.AddRow(r.Bench, fmt.Sprint(r.Sinks), t4, report.F(r.Time2P.Seconds(), 3), sp)
	}
	return t.Render(w)
}

// Local aliases keep the harness signatures readable.
type (
	treeT      = rctree.Tree
	treeNodeID = rctree.NodeID
)

// normalYield returns P(RAT >= target) for RAT ~ N(mean, sigma).
func normalYield(mean, sigma, target float64) float64 {
	if sigma == 0 {
		if mean >= target {
			return 1
		}
		return 0
	}
	return 1 - stats.Phi((target-mean)/sigma)
}

// AlgoReport is one algorithm's evaluation under the full WID model.
type AlgoReport struct {
	// YieldRAT is the q%-tile RAT (the "RAT at 95% timing yield").
	YieldRAT float64
	// RelDeg is the relative degradation of YieldRAT versus WID
	// (negative = worse than WID), the parenthesized percentages of
	// Tables 3–4.
	RelDeg float64
	// Yield is the timing yield at the common target RAT.
	Yield float64
	// Mean and Sigma are the canonical RAT moments.
	Mean, Sigma float64
	// Buffers is the number of inserted buffers (Table 5).
	Buffers int
}

// YieldRow is one benchmark's Tables 3/4/5 data.
type YieldRow struct {
	Bench  string
	Target float64
	NOM    AlgoReport
	D2D    AlgoReport
	WID    AlgoReport
}

// YieldComparison runs the three algorithms (NOM, D2D, WID) on every
// benchmark and evaluates all three buffered designs under the full WID
// model — heterogeneous spatial variation for Table 3, homogeneous for
// Table 4 — with the common target RAT set to the WID mean reduced by 10%
// (§5.3). Table 5 reads the buffer counts from the same rows.
func YieldComparison(cfg Config, hetero bool) ([]YieldRow, error) {
	cfg = cfg.withDefaults()
	lib := library()
	out := make([]YieldRow, 0, len(cfg.Benches))
	for _, name := range cfg.Benches {
		tr, err := benchgen.Build(name)
		if err != nil {
			return nil, err
		}
		wid, d2d, err := buildModels(tr, cfg.BudgetFrac, hetero)
		if err != nil {
			return nil, err
		}
		resNOM, err := core.Insert(tr, core.Options{Library: lib, Parallelism: cfg.Parallelism, HullBuffering: cfg.Hull})
		if err != nil {
			return nil, fmt.Errorf("experiments: NOM on %s: %w", name, err)
		}
		resD2D, err := core.Insert(tr, core.Options{Library: lib, Model: d2d, SelectQuantile: cfg.YieldQuantile, Parallelism: cfg.Parallelism, HullBuffering: cfg.Hull})
		if err != nil {
			return nil, fmt.Errorf("experiments: D2D on %s: %w", name, err)
		}
		resWID, err := insertWID(tr, wid, cfg.YieldQuantile, cfg.Parallelism, cfg.Hull)
		if err != nil {
			return nil, fmt.Errorf("experiments: WID on %s: %w", name, err)
		}
		row := YieldRow{Bench: name}
		reps := make([]AlgoReport, 3)
		for i, assign := range []map[treeNodeID]int{resNOM.Assignment, resD2D.Assignment, resWID.Assignment} {
			rep, err := yield.Evaluate(tr, lib, assign, wid, cfg.YieldQuantile)
			if err != nil {
				return nil, fmt.Errorf("experiments: evaluating %s: %w", name, err)
			}
			reps[i] = AlgoReport{
				YieldRAT: rep.YieldRAT,
				Mean:     rep.Mean,
				Sigma:    rep.Sigma,
				Buffers:  rep.NumBuffers,
			}
		}
		row.NOM, row.D2D, row.WID = reps[0], reps[1], reps[2]
		row.Target = row.WID.Mean - 0.10*math.Abs(row.WID.Mean)
		for _, r := range []*AlgoReport{&row.NOM, &row.D2D, &row.WID} {
			r.RelDeg = (r.YieldRAT - row.WID.YieldRAT) / math.Abs(row.WID.YieldRAT)
			r.Yield = normalYield(r.Mean, r.Sigma, row.Target)
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderTable34 renders a yield comparison as Table 3 (heterogeneous) or
// Table 4 (homogeneous).
func RenderTable34(w io.Writer, rows []YieldRow, hetero bool) error {
	title := "Table 4: RAT optimization under the homogeneous spatial variation model"
	num := "4"
	if hetero {
		title = "Table 3: RAT optimization under the heterogeneous spatial variation model"
		num = "3"
	}
	_ = num
	t := report.NewTable(title,
		"Bench", "NOM RAT (%)", "NOM Yield", "D2D RAT (%)", "D2D Yield", "WID RAT", "WID Yield")
	var sumNOM, sumD2D, yNOM, yD2D, yWID float64
	for _, r := range rows {
		t.AddRow(r.Bench,
			fmt.Sprintf("%s (%+.1f%%)", report.F(r.NOM.YieldRAT, 1), 100*r.NOM.RelDeg),
			report.Pct(r.NOM.Yield, 1),
			fmt.Sprintf("%s (%+.1f%%)", report.F(r.D2D.YieldRAT, 1), 100*r.D2D.RelDeg),
			report.Pct(r.D2D.Yield, 1),
			report.F(r.WID.YieldRAT, 1),
			report.Pct(r.WID.Yield, 1),
		)
		sumNOM += r.NOM.RelDeg
		sumD2D += r.D2D.RelDeg
		yNOM += r.NOM.Yield
		yD2D += r.D2D.Yield
		yWID += r.WID.Yield
	}
	n := float64(len(rows))
	t.AddRule()
	t.AddRow("Avg",
		fmt.Sprintf("%+.1f%%", 100*sumNOM/n), report.Pct(yNOM/n, 1),
		fmt.Sprintf("%+.1f%%", 100*sumD2D/n), report.Pct(yD2D/n, 1),
		"", report.Pct(yWID/n, 1))
	return t.Render(w)
}

// RenderTable5 renders the buffer-count comparison.
func RenderTable5(w io.Writer, rows []YieldRow) error {
	t := report.NewTable("Table 5: Number of buffers under different variation models",
		"Bench", "NOM", "D2D", "WID")
	var rNOM, rD2D float64
	for _, r := range rows {
		t.AddRow(r.Bench,
			fmt.Sprintf("%d (%.2fx)", r.NOM.Buffers, float64(r.NOM.Buffers)/float64(r.WID.Buffers)),
			fmt.Sprintf("%d (%.2fx)", r.D2D.Buffers, float64(r.D2D.Buffers)/float64(r.WID.Buffers)),
			fmt.Sprint(r.WID.Buffers))
		rNOM += float64(r.NOM.Buffers) / float64(r.WID.Buffers)
		rD2D += float64(r.D2D.Buffers) / float64(r.WID.Buffers)
	}
	n := float64(len(rows))
	t.AddRule()
	t.AddRow("Avg", fmt.Sprintf("%.2fx", rNOM/n), fmt.Sprintf("%.2fx", rD2D/n), "1x")
	return t.Render(w)
}
