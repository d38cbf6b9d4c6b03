package yield

import (
	"math"
	"slices"
	"testing"

	"vabuf/internal/stats"
)

// TestAdaptiveFullBudgetMatchesParallel: with Tol <= 0 the adaptive run
// burns the whole budget, and its sample vector is bit-identical to
// MonteCarloParallel for the same (n, seed) — the prefix property at
// full length.
func TestAdaptiveFullBudgetMatchesParallel(t *testing.T) {
	tr, model, lib := testSetup(t, 20, 15)
	assign := someAssignment(tr)
	ref, err := MonteCarloParallel(tr, lib, assign, nil, model, 800, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, est, err := MonteCarloAdaptive(tr, lib, assign, nil, model, AdaptiveOptions{
		MaxSamples: 800,
		Seed:       7,
		Workers:    4,
		Quantile:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Converged {
		t.Error("Tol=0 run reports convergence")
	}
	if est.Samples != 800 || len(got) != 800 {
		t.Fatalf("full-budget run used %d samples, want 800", est.Samples)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("sample %d differs: %g vs %g", i, got[i], ref[i])
		}
	}
}

// TestAdaptiveStopsEarly: a loose tolerance converges well under the
// cap, and the committed samples are a shard-aligned prefix of the
// fixed-budget stream.
func TestAdaptiveStopsEarly(t *testing.T) {
	tr, model, lib := testSetup(t, 20, 15)
	assign := someAssignment(tr)
	const cap = 16000
	got, est, err := MonteCarloAdaptive(tr, lib, assign, nil, model, AdaptiveOptions{
		MaxSamples: cap,
		Seed:       7,
		Quantile:   0.05,
		Tol:        0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Converged {
		t.Fatalf("loose tolerance did not converge within %d samples", cap)
	}
	if est.Samples >= cap {
		t.Errorf("converged run used the full budget (%d samples)", est.Samples)
	}
	if !slices.ContainsFunc(stats.ShardPlan(cap), func(sh stats.Shard) bool { return sh.End() == est.Samples }) {
		t.Errorf("stop at %d samples is not shard-aligned", est.Samples)
	}
	ref, err := MonteCarloParallel(tr, lib, assign, nil, model, cap, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("sample %d differs from fixed-budget stream", i)
		}
	}
	if est.HalfWidth <= 0 || est.Sigma <= 0 {
		t.Errorf("degenerate estimate: %+v", est)
	}
}

// TestAdaptiveWorkerInvariance: the stopping point and the returned
// samples depend only on (MaxSamples, Seed), never on the worker count.
func TestAdaptiveWorkerInvariance(t *testing.T) {
	tr, model, lib := testSetup(t, 10, 4)
	assign := someAssignment(tr)
	opts := AdaptiveOptions{MaxSamples: 8000, Seed: 3, Quantile: 0.05, Tol: 0.06}
	opts.Workers = 1
	ref, refEst, err := MonteCarloAdaptive(tr, lib, assign, nil, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		opts.Workers = workers
		got, est, err := MonteCarloAdaptive(tr, lib, assign, nil, model, opts)
		if err != nil {
			t.Fatal(err)
		}
		if est != refEst {
			t.Fatalf("workers=%d: estimate %+v, want %+v", workers, est, refEst)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: sample %d differs", workers, i)
			}
		}
	}
}

// TestAdaptiveOnEstimateAbort: the observer sees every committed shard
// and can stop the run.
func TestAdaptiveOnEstimateAbort(t *testing.T) {
	tr, model, lib := testSetup(t, 10, 4)
	assign := someAssignment(tr)
	var seen []int
	got, est, err := MonteCarloAdaptive(tr, lib, assign, nil, model, AdaptiveOptions{
		MaxSamples: 1600,
		Seed:       1,
		Quantile:   0.05,
		OnEstimate: func(e Estimate) bool {
			seen = append(seen, e.Samples)
			return len(seen) < 3
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("observer fired %d times, want 3", len(seen))
	}
	if est.Converged {
		t.Error("aborted run reports convergence")
	}
	if len(got) != est.Samples || est.Samples != 300 {
		t.Errorf("aborted after %d samples (len %d), want 300", est.Samples, len(got))
	}
}

func TestAdaptiveValidation(t *testing.T) {
	tr, model, lib := testSetup(t, 5, 1)
	assign := someAssignment(tr)
	cases := []AdaptiveOptions{
		{MaxSamples: 0, Quantile: 0.05},
		{MaxSamples: 100, Quantile: 0},
		{MaxSamples: 100, Quantile: 1},
		{MaxSamples: 100, Quantile: 0.05, Confidence: 1},
		{MaxSamples: 100, Quantile: math.NaN()},
		{MaxSamples: 100, Quantile: 0.05, Confidence: math.NaN()},
	}
	for i, opts := range cases {
		if _, _, err := MonteCarloAdaptive(tr, lib, assign, nil, model, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if _, _, err := MonteCarloAdaptive(tr, lib, assign, nil, nil, AdaptiveOptions{MaxSamples: 100, Quantile: 0.05}); err == nil {
		t.Error("nil model accepted")
	}
}
