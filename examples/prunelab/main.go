// Prunelab: a close-up of the paper's §2 — why the 2P pruning rule keeps
// the algorithm linear while the 4P partial order explodes. The example
// runs both rules on growing nets with a single buffer type and prints
// candidate statistics side by side, then sketches the Figure 2
// probability curves that justify pruning by mean order.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"time"

	"vabuf"
)

func main() {
	lib := vabuf.DefaultLibrary()[:1] // one buffer type keeps 4P alive longer
	fmt.Println("2P vs 4P pruning on growing nets (single buffer type):")
	fmt.Printf("%6s %12s %12s %14s %14s\n", "sinks", "2P time", "4P time", "2P generated", "4P generated")
	for _, sinks := range []int{8, 16, 32, 64, 128} {
		tree, err := vabuf.GenerateTree(vabuf.BenchmarkSpec{
			Name: "prunelab", Sinks: sinks, Seed: int64(100 + sinks),
		})
		if err != nil {
			log.Fatal(err)
		}
		row := fmt.Sprintf("%6d", sinks)
		var gen2 string
		t2, g2, err := timeRun(tree, lib, vabuf.Rule2P)
		if err != nil {
			log.Fatal(err)
		}
		row += fmt.Sprintf(" %11.4fs", t2.Seconds())
		gen2 = fmt.Sprintf("%14d", g2)
		t4, g4, err := timeRun(tree, lib, vabuf.Rule4P)
		switch {
		case err == nil:
			row += fmt.Sprintf(" %11.4fs", t4.Seconds())
		case errors.Is(err, vabuf.ErrCapacity) || errors.Is(err, vabuf.ErrTimeout):
			row += fmt.Sprintf(" %12s", "-")
		default:
			log.Fatal(err)
		}
		row += gen2
		if err == nil {
			row += fmt.Sprintf(" %14d", g4)
		} else {
			row += fmt.Sprintf(" %14s", "(exceeded)")
		}
		fmt.Println(row)
	}

	fmt.Println("\nFigure 2: P(T1 > T2) as the mean gap grows (correlation helps!):")
	fmt.Printf("%10s", "mean gap")
	for _, rho := range []float64{0, 0.5, 0.9} {
		fmt.Printf("   rho=%.1f", rho)
	}
	fmt.Println()
	for _, gap := range []float64{0, 1, 2, 4, 8} {
		fmt.Printf("%10.1f", gap)
		for _, rho := range []float64{0, 0.5, 0.9} {
			// Unit sigmas; eq. 8 of the paper.
			p := probGreater(gap, rho)
			fmt.Printf("   %6.3f ", p)
		}
		fmt.Println()
	}
	fmt.Println("\nwith high correlation a tiny mean edge is already near-certain dominance,")
	fmt.Println("which is why pruning by mean order (pbar = 0.5) loses almost nothing in practice.")
}

func timeRun(tree *vabuf.Tree, lib vabuf.Library, rule vabuf.Rule) (time.Duration, int64, error) {
	cfg := vabuf.DefaultModelConfig(tree)
	cfg.RandomFrac, cfg.SpatialFrac, cfg.InterDieFrac = 0.15, 0.15, 0.15
	model, err := vabuf.NewVariationModel(cfg)
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	res, err := vabuf.Insert(tree, vabuf.Options{
		Library:       lib,
		Model:         model,
		Rule:          rule,
		MaxCandidates: 2_000_000,
		Context:       ctx,
	})
	if err != nil {
		return 0, 0, err
	}
	return time.Since(t0), res.Stats.Generated, nil
}

// probGreater is eq. 8 for unit sigmas: Phi(gap / sqrt(2 - 2 rho)).
func probGreater(gap, rho float64) float64 {
	sd := 2 - 2*rho
	if sd <= 0 {
		if gap > 0 {
			return 1
		}
		return 0.5
	}
	x := gap / math.Sqrt(sd)
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}
