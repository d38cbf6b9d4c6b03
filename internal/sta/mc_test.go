package sta

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vabuf/internal/variation"
)

// chainGraph builds a small random DAG with shared and private sources.
func chainGraph(t *testing.T, seed int64) (*Graph, *variation.Space) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := variation.NewSpace()
	shared := space.Add(variation.ClassInterDie, 1, "G")
	g := NewGraph()
	const layers, width = 4, 3
	prev := make([]PinID, width)
	for i := range prev {
		prev[i] = g.AddPin("")
	}
	for l := 0; l < layers; l++ {
		cur := make([]PinID, width)
		for i := range cur {
			cur[i] = g.AddPin("")
			for j := range prev {
				if rng.Float64() < 0.7 {
					priv := space.Add(variation.ClassRandom, 1, "x")
					d := variation.NewForm(5+5*rng.Float64(), []variation.Term{
						{ID: shared, Coef: 0.5},
						{ID: priv, Coef: 0.5 + rng.Float64()},
					})
					if err := g.AddArc(prev[j], cur[i], d); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		prev = cur
	}
	return g, space
}

// TestMonteCarloParallelWorkerInvariance: the sharded sampler returns
// bit-identical matrices for every worker count, because the shard layout
// and per-shard RNG streams depend only on (n, seed).
func TestMonteCarloParallelWorkerInvariance(t *testing.T) {
	g, space := chainGraph(t, 11)
	ref, err := MonteCarloParallel(g, nil, space, 1001, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		got, err := MonteCarloParallel(g, nil, space, 1001, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			for s := range ref[i] {
				if got[i][s] != ref[i][s] {
					t.Fatalf("workers=%d: sample [%d][%d] = %v, want %v",
						workers, i, s, got[i][s], ref[i][s])
				}
			}
		}
	}
}

// TestMonteCarloParallelQuantiles: the sharded stream reproduces the
// serial sampler's distribution — quantiles agree to sampling noise even
// though the streams differ sample-by-sample.
func TestMonteCarloParallelQuantiles(t *testing.T) {
	g, space := chainGraph(t, 23)
	const n = 20000
	serial, err := MonteCarlo(g, nil, space, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := MonteCarloParallel(g, nil, space, n, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	quantile := func(xs []float64, q float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[int(q*float64(len(s)-1))]
	}
	for i := range serial {
		for _, q := range []float64{0.05, 0.5, 0.95} {
			a := quantile(serial[i], q)
			b := quantile(sharded[i], q)
			if a == 0 && b == 0 {
				continue // unreachable output pin
			}
			if math.Abs(a-b) > 0.02*math.Abs(a)+0.2 {
				t.Errorf("output %d q%.2f: serial %.3f vs sharded %.3f", i, q, a, b)
			}
		}
	}
}

func TestMonteCarloParallelValidation(t *testing.T) {
	g, space := chainGraph(t, 3)
	if _, err := MonteCarloParallel(g, nil, space, 0, 1, 2); err == nil {
		t.Error("zero samples accepted")
	}
	// Fewer samples than shards still covers every sample exactly once.
	out, err := MonteCarloParallel(g, nil, space, 3, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if len(out[i]) != 3 {
			t.Errorf("output %d: %d samples, want 3", i, len(out[i]))
		}
	}
}

// TestMonteCarloRejectsFormsOutsideSpace: a delay or input form naming a
// source the space does not hold, or a nil space, is an error from every
// sampler, not an index panic inside a shard worker.
func TestMonteCarloRejectsFormsOutsideSpace(t *testing.T) {
	runs := map[string]func(g *Graph, in map[PinID]variation.Form, space *variation.Space) error{
		"serial": func(g *Graph, in map[PinID]variation.Form, space *variation.Space) error {
			_, err := MonteCarlo(g, in, space, 8, 1)
			return err
		},
		"parallel": func(g *Graph, in map[PinID]variation.Form, space *variation.Space) error {
			_, err := MonteCarloParallel(g, in, space, 8, 1, 2)
			return err
		},
		"adaptive": func(g *Graph, in map[PinID]variation.Form, space *variation.Space) error {
			_, _, err := MonteCarloAdaptive(g, in, space, AdaptiveOptions{MaxSamples: 64, Seed: 1, Workers: 2, Quantile: 0.5})
			return err
		},
	}
	space := variation.NewSpace()
	space.Add(variation.ClassRandom, 1, "x")
	inside := variation.NewForm(1, []variation.Term{{ID: 0, Coef: 0.1}})
	type tc struct {
		name         string
		delay, input variation.Form
		space        *variation.Space
		ok           bool
	}
	cases := []tc{
		{name: "in-space", delay: inside, input: inside, space: space, ok: true},
		{name: "nil-space", delay: inside, input: inside},
	}
	for _, bad := range []variation.SourceID{5, 1, -1} {
		outside := variation.Form{Nominal: 1, Terms: []variation.Term{{ID: bad, Coef: 0.1}}}
		cases = append(cases,
			tc{name: fmt.Sprintf("arc-source-%d", bad), delay: outside, input: inside, space: space},
			tc{name: fmt.Sprintf("input-source-%d", bad), delay: inside, input: outside, space: space})
	}
	for _, c := range cases {
		for rname, run := range runs {
			g := NewGraph()
			a, b := g.AddPin("a"), g.AddPin("b")
			if err := g.AddArc(a, b, c.delay); err != nil {
				t.Fatal(err)
			}
			err := run(g, map[PinID]variation.Form{a: c.input}, c.space)
			if (err == nil) != c.ok {
				t.Errorf("%s, %s: err = %v, want ok %v", c.name, rname, err, c.ok)
			}
		}
	}
}
