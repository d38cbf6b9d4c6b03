// Command experiments regenerates every table and figure of the paper's
// evaluation section. With no flags it runs the full suite at the default
// configuration (the one recorded in EXPERIMENTS.md); -run selects a
// single experiment and -quick downsizes everything for a fast pass.
//
// Usage:
//
//	experiments [-run all|table1|table2|table3|table4|table5|fig2|fig3|fig5|fig6|pbar|capacity]
//	            [-quick] [-budget 0.15] [-mc 10000] [-htree 8] [-benches p1,r1,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"vabuf"
	"vabuf/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// profileTo starts a CPU profile and/or arranges a heap profile; the
// returned func finalizes both.
func profileTo(cpuFile, memFile string) (func() error, error) {
	var cpu *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpu = f
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize the final live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func run() error {
	var (
		which    = flag.String("run", "all", "experiment to run (all, table1, table2, table3, table4, table5, fig2, fig3, fig5, fig6, pbar, capacity)")
		quick    = flag.Bool("quick", false, "downsized configuration for a fast pass")
		budget   = flag.Float64("budget", 0, "per-class variation budget (default 0.15; paper's stated value is 0.05)")
		mc       = flag.Int("mc", 0, "Monte-Carlo samples for Figure 6")
		htree    = flag.Int("htree", 0, "H-tree levels for the capacity run")
		benches  = flag.String("benches", "", "comma-separated benchmark subset (default: all)")
		pbarOn   = flag.String("pbar-bench", "r1", "benchmark for the pbar sweep")
		csvDir   = flag.String("csv", "", "with -run all, also write the plotted figure data series as CSV files into this directory")
		parallel = flag.Int("parallel", 0, "DP worker goroutines per insertion (0 = GOMAXPROCS, 1 = serial; results identical)")
		hullName = flag.String("hull", "auto", "convex-hull buffering kernel: auto or off (results identical)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	finishProfiles, err := profileTo(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := finishProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: profile:", err)
		}
	}()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Parallelism = *parallel
	if cfg.Hull, err = vabuf.ParseHullMode(*hullName); err != nil {
		return err
	}
	if *budget != 0 {
		cfg.BudgetFrac = *budget
	}
	if *mc != 0 {
		cfg.MCSamples = *mc
	}
	if *htree != 0 {
		cfg.HTreeLevels = *htree
	}
	if *benches != "" {
		cfg.Benches = strings.Split(*benches, ",")
	}
	w := os.Stdout

	if *csvDir != "" && *which != "all" {
		return fmt.Errorf("-csv exports the figures of -run all, not -run %s", *which)
	}

	switch *which {
	case "all":
		figs, err := experiments.RunAll(w, cfg)
		if err != nil || *csvDir == "" {
			return err
		}
		if err := experiments.WriteFigureCSVs(*csvDir, figs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote figure CSVs to %s\n", *csvDir)
		return nil
	case "table1":
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderTable1(w, rows)
	case "table2":
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderTable2(w, rows)
	case "table3", "table4":
		hetero := *which == "table3"
		rows, err := experiments.YieldComparison(cfg, hetero)
		if err != nil {
			return err
		}
		return experiments.RenderTable34(w, rows, hetero)
	case "table5":
		rows, err := experiments.YieldComparison(cfg, true)
		if err != nil {
			return err
		}
		return experiments.RenderTable5(w, rows)
	case "fig2":
		curves, err := experiments.Figure2(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderFigure2(w, curves)
	case "fig3":
		res, err := experiments.Figure3(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderFigure3(w, res)
	case "fig5":
		res, err := experiments.Figure5(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderFigure5(w, res)
	case "fig6":
		res, err := experiments.Figure6(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderFigure6(w, res)
	case "pbar":
		rows, err := experiments.PbarSweep(cfg, *pbarOn)
		if err != nil {
			return err
		}
		return experiments.RenderPbarSweep(w, *pbarOn, rows)
	case "capacity":
		res, err := experiments.CapacityHTree(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderCapacity(w, res)
	case "budget":
		rows, err := experiments.BudgetAblation(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderBudgetAblation(w, rows)
	case "wiresizing":
		rows, err := experiments.WireSizingAblation(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderWireSizing(w, rows)
	case "minvar":
		rows, err := experiments.MinVarianceAblation(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderMinVariance(w, rows)
	case "corners":
		rows, err := experiments.CornerAblation(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderCornerAblation(w, rows)
	case "inverters":
		rows, err := experiments.InverterAblation(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderInverterAblation(w, rows)
	case "skew":
		rows, err := experiments.SkewExtension(cfg)
		if err != nil {
			return err
		}
		return experiments.RenderSkewExtension(w, rows)
	default:
		return fmt.Errorf("unknown experiment %q", *which)
	}
}
