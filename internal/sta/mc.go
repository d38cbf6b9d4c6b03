package sta

import (
	"fmt"
	"math/rand"

	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// mcGraph is a timing graph prepared once for an n-sample Monte-Carlo
// run — the sta counterpart of yield.CompileMC: the topological order,
// the output pins and the result matrix every sampler fills. The graph
// and inputs are read-only afterwards, so shards may fill disjoint
// column ranges of res concurrently.
type mcGraph struct {
	g      *Graph
	inputs map[PinID]variation.Form
	space  *variation.Space
	order  []PinID
	outs   []PinID
	// res[i][s] is the arrival time at outs[i] in sample s.
	res [][]float64
}

// prepareMC validates the sample count, the graph and the forms the
// samplers evaluate, and allocates the n-column result matrix.
func prepareMC(g *Graph, inputs map[PinID]variation.Form, space *variation.Space, n int) (*mcGraph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sta: sample count %d must be positive", n)
	}
	if space == nil {
		return nil, fmt.Errorf("sta: Monte Carlo requires a variation space")
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range g.Inputs() {
		if f, ok := inputs[id]; ok {
			if err := checkSources(f, space); err != nil {
				return nil, fmt.Errorf("sta: input at pin %d: %w", id, err)
			}
		}
	}
	for _, arcs := range g.out {
		for _, a := range arcs {
			if err := checkSources(a.Delay, space); err != nil {
				return nil, fmt.Errorf("sta: arc %d->%d delay: %w", a.From, a.To, err)
			}
		}
	}
	outs := g.Outputs()
	res := make([][]float64, len(outs))
	for i := range res {
		res[i] = make([]float64, n)
	}
	return &mcGraph{g: g, inputs: inputs, space: space, order: order, outs: outs, res: res}, nil
}

// checkSources rejects a form naming a source outside space, which
// Form.Eval on a space sample would index out of range.
func checkSources(f variation.Form, space *variation.Space) error {
	for _, t := range f.Terms {
		if t.ID < 0 || int(t.ID) >= space.Len() {
			return fmt.Errorf("source %d outside the %d-source space", t.ID, space.Len())
		}
	}
	return nil
}

// MonteCarlo samples the variation space n times and evaluates the graph
// deterministically per sample, returning per-sample arrival times at
// every output pin (indexed as out[outputIdx][sample]) in the order of
// g.Outputs(). It is the exact oracle the canonical MAX approximates.
func MonteCarlo(g *Graph, inputs map[PinID]variation.Form, space *variation.Space,
	n int, seed int64) ([][]float64, error) {
	m, err := prepareMC(g, inputs, space, n)
	if err != nil {
		return nil, err
	}
	m.sample(stats.Shard{Count: n, Seed: seed})
	return m.res, nil
}

// sample evaluates samples [sh.From, sh.End()) of the result matrix with
// an RNG stream seeded sh.Seed.
func (m *mcGraph) sample(sh stats.Shard) {
	g := m.g
	rng := rand.New(rand.NewSource(sh.Seed))
	arr := make([]float64, g.NumPins())
	seen := make([]bool, g.NumPins())
	var buf []float64
	for s := sh.From; s < sh.End(); s++ {
		buf = m.space.Sample(rng, buf)
		for i := range seen {
			seen[i] = false
			arr[i] = 0
		}
		for _, id := range g.Inputs() {
			if f, ok := m.inputs[id]; ok {
				arr[id] = f.Eval(buf)
			}
			seen[id] = true
		}
		for _, id := range m.order {
			for _, a := range g.out[id] {
				cand := arr[id] + a.Delay.Eval(buf)
				if !seen[a.To] || cand > arr[a.To] {
					arr[a.To] = cand
					seen[a.To] = true
				}
			}
		}
		for i, id := range m.outs {
			m.res[i][s] = arr[id]
		}
	}
}

// MonteCarloParallel is MonteCarlo fanned out over worker goroutines.
// Sampling is sharded deterministically by stats.ShardPlan — shard i
// draws its samples from seed+i — so the result is identical for any
// worker count, including 1, but is NOT the same stream as
// MonteCarlo(seed). workers <= 0 selects GOMAXPROCS.
func MonteCarloParallel(g *Graph, inputs map[PinID]variation.Form, space *variation.Space,
	n int, seed int64, workers int) ([][]float64, error) {
	m, err := prepareMC(g, inputs, space, n)
	if err != nil {
		return nil, err
	}
	// With no commit callback RunShards has no error to return.
	_ = stats.RunShards(stats.ShardPlan(n, seed), workers, m.sample, nil)
	return m.res, nil
}
