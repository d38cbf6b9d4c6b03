package experiments

import (
	"fmt"
	"io"
)

// Figures holds the figure data RunAll rendered, so WriteFigureCSVs
// exports the very series that were plotted.
type Figures struct {
	Fig2 []Figure2Curve
	Fig3 *Figure3Result
	Fig5 *Figure5Result
	Fig6 *Figure6Result
}

// RunAll executes every experiment in sequence, renders the paper's
// tables and figures to w and returns the figure data it rendered. It is
// the engine behind cmd/experiments and the EXPERIMENTS.md record.
func RunAll(w io.Writer, cfg Config) (*Figures, error) {
	cfg = cfg.withDefaults()
	section := func(name string) {
		fmt.Fprintf(w, "\n===== %s =====\n\n", name)
	}

	section("Table 1")
	t1, err := Table1(cfg)
	if err != nil {
		return nil, fmt.Errorf("table 1: %w", err)
	}
	if err := RenderTable1(w, t1); err != nil {
		return nil, err
	}

	section("Figure 2")
	f2, err := Figure2(cfg)
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}
	if err := RenderFigure2(w, f2); err != nil {
		return nil, err
	}

	section("Figure 3")
	f3, err := Figure3(cfg)
	if err != nil {
		return nil, fmt.Errorf("figure 3: %w", err)
	}
	if err := RenderFigure3(w, f3); err != nil {
		return nil, err
	}

	section("Table 2")
	t2, err := Table2(cfg)
	if err != nil {
		return nil, fmt.Errorf("table 2: %w", err)
	}
	if err := RenderTable2(w, t2); err != nil {
		return nil, err
	}

	section("Figure 5")
	f5, err := Figure5(cfg)
	if err != nil {
		return nil, fmt.Errorf("figure 5: %w", err)
	}
	if err := RenderFigure5(w, f5); err != nil {
		return nil, err
	}

	section("Figure 6")
	f6, err := Figure6(cfg)
	if err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}
	if err := RenderFigure6(w, f6); err != nil {
		return nil, err
	}

	section("Table 3 (heterogeneous spatial model)")
	het, err := YieldComparison(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("table 3: %w", err)
	}
	if err := RenderTable34(w, het, true); err != nil {
		return nil, err
	}

	section("Table 4 (homogeneous spatial model)")
	hom, err := YieldComparison(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("table 4: %w", err)
	}
	if err := RenderTable34(w, hom, false); err != nil {
		return nil, err
	}

	section("Table 5 (buffer counts, heterogeneous model)")
	if err := RenderTable5(w, het); err != nil {
		return nil, err
	}

	section("pbar sensitivity (§5.3)")
	pbarBench := cfg.Benches[0]
	pb, err := PbarSweep(cfg, pbarBench)
	if err != nil {
		return nil, fmt.Errorf("pbar sweep: %w", err)
	}
	if err := RenderPbarSweep(w, pbarBench, pb); err != nil {
		return nil, err
	}

	section("Capacity (footnote 4)")
	capRes, err := CapacityHTree(cfg)
	if err != nil {
		return nil, fmt.Errorf("capacity: %w", err)
	}
	if err := RenderCapacity(w, capRes); err != nil {
		return nil, err
	}

	section("Ablation: variation budget")
	ba, err := BudgetAblation(cfg)
	if err != nil {
		return nil, fmt.Errorf("budget ablation: %w", err)
	}
	if err := RenderBudgetAblation(w, ba); err != nil {
		return nil, err
	}

	section("Ablation: wire sizing")
	ws, err := WireSizingAblation(cfg)
	if err != nil {
		return nil, fmt.Errorf("wire-sizing ablation: %w", err)
	}
	if err := RenderWireSizing(w, ws); err != nil {
		return nil, err
	}

	section("Ablation: canonical MIN variance")
	mv, err := MinVarianceAblation(cfg)
	if err != nil {
		return nil, fmt.Errorf("min-variance ablation: %w", err)
	}
	if err := RenderMinVariance(w, mv); err != nil {
		return nil, err
	}

	section("Ablation: corner methodology")
	ca, err := CornerAblation(cfg)
	if err != nil {
		return nil, fmt.Errorf("corner ablation: %w", err)
	}
	if err := RenderCornerAblation(w, ca); err != nil {
		return nil, err
	}

	section("Ablation: inverters")
	ia, err := InverterAblation(cfg)
	if err != nil {
		return nil, fmt.Errorf("inverter ablation: %w", err)
	}
	if err := RenderInverterAblation(w, ia); err != nil {
		return nil, err
	}

	section("Extension: clock-skew minimization")
	se, err := SkewExtension(cfg)
	if err != nil {
		return nil, fmt.Errorf("skew extension: %w", err)
	}
	if err := RenderSkewExtension(w, se); err != nil {
		return nil, err
	}
	return &Figures{Fig2: f2, Fig3: f3, Fig5: f5, Fig6: f6}, nil
}
