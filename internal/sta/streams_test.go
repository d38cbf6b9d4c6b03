package sta

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

func hashMatrix(h hash.Hash, res [][]float64) {
	var b [8]byte
	for _, row := range res {
		for _, x := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
}

// TestMonteCarloStreamsPinned pins SHA-256 hashes of the timing-graph
// Monte-Carlo matrices (and adaptive estimates) for fixed (graph, seed,
// n). Worker counts share one hash: the sharded stream must not depend
// on them.
func TestMonteCarloStreamsPinned(t *testing.T) {
	g, space := chainGraph(t, 11)
	adaptive := func(tol float64, workers int) func() ([][]float64, error) {
		return func() ([][]float64, error) {
			res, est, err := MonteCarloAdaptive(g, nil, space, AdaptiveOptions{
				MaxSamples: 6000, Seed: 3, Workers: workers, Quantile: 0.05, Tol: tol,
			})
			conv := 0.0
			if est.Converged {
				conv = 1
			}
			res = append(res, []float64{float64(est.Samples), float64(est.Output),
				est.Quantile, est.HalfWidth, conv})
			return res, err
		}
	}
	cases := []struct {
		name string
		run  func() ([][]float64, error)
		want string
	}{
		{"serial", func() ([][]float64, error) { return MonteCarlo(g, nil, space, 500, 9) }, "021518ee2de477a3"},
		{"parallel-w1", func() ([][]float64, error) { return MonteCarloParallel(g, nil, space, 1000, 7, 1) }, "3c14109cb672e8a4"},
		{"parallel-w3", func() ([][]float64, error) { return MonteCarloParallel(g, nil, space, 1000, 7, 3) }, "3c14109cb672e8a4"},
		{"adaptive-tol0.01", adaptive(0.01, 3), "85b58155f8563448"},
		{"adaptive-tol0", adaptive(0, 2), "1e00a48550381cac"},
	}
	for _, c := range cases {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		hashMatrix(h, res)
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.want {
			t.Errorf("%s: stream hash %s, want %s", c.name, got, c.want)
		}
	}
}
