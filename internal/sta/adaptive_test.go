package sta

import (
	"math"
	"testing"
)

// TestAdaptiveFullBudgetMatchesParallel: with Tol <= 0 the adaptive run
// commits the full budget and every output's sample vector is
// bit-identical to MonteCarloParallel for the same (n, seed).
func TestAdaptiveFullBudgetMatchesParallel(t *testing.T) {
	g, space := chainGraph(t, 11)
	ref, err := MonteCarloParallel(g, nil, space, 1600, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, est, err := MonteCarloAdaptive(g, nil, space, AdaptiveOptions{
		MaxSamples: 1600,
		Seed:       7,
		Quantile:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Converged || est.Samples != 1600 {
		t.Fatalf("full-budget estimate %+v", est)
	}
	for i := range ref {
		if len(got[i]) != len(ref[i]) {
			t.Fatalf("output %d: %d samples, want %d", i, len(got[i]), len(ref[i]))
		}
		for s := range ref[i] {
			if got[i][s] != ref[i][s] {
				t.Fatalf("output %d sample %d differs", i, s)
			}
		}
	}
}

// TestAdaptiveStopsEarlyAndIsWorkerInvariant: a loose tolerance stops
// under the cap at a point independent of the worker count, returning a
// prefix of the fixed-budget stream for every output.
func TestAdaptiveStopsEarlyAndIsWorkerInvariant(t *testing.T) {
	g, space := chainGraph(t, 23)
	const cap = 32000
	opts := AdaptiveOptions{MaxSamples: cap, Seed: 9, Quantile: 0.05, Tol: 0.05, Workers: 1}
	ref, refEst, err := MonteCarloAdaptive(g, nil, space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !refEst.Converged {
		t.Fatalf("loose tolerance did not converge within %d samples", cap)
	}
	if refEst.Samples >= cap {
		t.Errorf("converged run used the full budget (%d samples)", refEst.Samples)
	}
	full, err := MonteCarloParallel(g, nil, space, cap, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		for s := range ref[i] {
			if ref[i][s] != full[i][s] {
				t.Fatalf("output %d sample %d differs from fixed-budget stream", i, s)
			}
		}
	}
	for _, workers := range []int{4, 0} {
		opts.Workers = workers
		_, est, err := MonteCarloAdaptive(g, nil, space, opts)
		if err != nil {
			t.Fatal(err)
		}
		if est != refEst {
			t.Fatalf("workers=%d: estimate %+v, want %+v", workers, est, refEst)
		}
	}
}

func TestAdaptiveValidation(t *testing.T) {
	g, space := chainGraph(t, 5)
	cases := []AdaptiveOptions{
		{MaxSamples: 0, Quantile: 0.05},
		{MaxSamples: 100, Quantile: 0},
		{MaxSamples: 100, Quantile: 0.05, Confidence: 2},
		{MaxSamples: 100, Quantile: math.NaN()},
		{MaxSamples: 100, Quantile: 0.05, Confidence: math.NaN()},
	}
	for i, opts := range cases {
		if _, _, err := MonteCarloAdaptive(g, nil, space, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, _, err := MonteCarloAdaptive(NewGraph(), nil, space, AdaptiveOptions{MaxSamples: 100, Quantile: 0.05}); err == nil {
		t.Error("graph with no outputs accepted")
	}
}
