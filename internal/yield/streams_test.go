package yield

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// hashFloats feeds the IEEE bit patterns of xs into h, so two vectors hash
// equal only when they are bit-identical (signed zeros and NaN payloads
// included).
func hashFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// hashEstimate hashes every field of an adaptive estimate.
func hashEstimate(h hash.Hash, est Estimate) {
	conv := 0.0
	if est.Converged {
		conv = 1
	}
	hashFloats(h, float64(est.Samples), est.Mean, est.Sigma, est.Quantile, est.HalfWidth, conv)
}

// pinnedNet is one benchgen net with a fixed assignment, per-edge wire
// overrides on every fourth edge, and a model whose every buffer site was
// resolved in ascending node order before any sampler touches it. Nets a
// and b use the heterogeneous model, whose per-site spatial sigma makes
// every deviation form distinct; net c uses the default homogeneous
// model, where buffer sites in one grid cell share all of their
// deviation terms but the per-site random one.
type pinnedNet struct {
	tree   *rctree.Tree
	lib    device.Library
	assign map[rctree.NodeID]int
	wires  rctree.WireAssignment
	model  *variation.Model
}

func pinnedNets(t *testing.T) []pinnedNet {
	t.Helper()
	wlib := rctree.DefaultWireLibrary()
	var out []pinnedNet
	for _, net := range []struct {
		spec          benchgen.Spec
		heterogeneous bool
	}{
		{benchgen.Spec{Sinks: 12, Seed: 3}, true},
		{benchgen.Spec{Sinks: 40, Seed: 8}, true},
		{benchgen.Spec{Sinks: 40, Seed: 8}, false},
	} {
		tr, err := benchgen.Random(net.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := variation.DefaultConfig(tr.BoundingBox().Expand(100))
		cfg.Heterogeneous = net.heterogeneous
		model, err := variation.NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lib := device.DefaultLibrary()
		assign := make(map[rctree.NodeID]int)
		wires := make(rctree.WireAssignment)
		for i := range tr.Nodes {
			n := &tr.Nodes[i]
			if n.BufferOK && i%3 == 0 {
				assign[n.ID] = i % len(lib)
				model.Deviation(int(n.ID), n.Loc)
			}
			if n.ID != tr.Root && i%4 == 1 {
				wires[n.ID] = wlib[i%len(wlib)].Params
			}
		}
		out = append(out, pinnedNet{tree: tr, lib: lib, assign: assign, wires: wires, model: model})
	}
	return out
}

// TestMonteCarloStreamsPinned pins SHA-256 hashes of the Monte-Carlo
// sample vectors (and adaptive estimates) for fixed (net, seed, n), so
// any change to the sampling stream or the per-sample float operations
// shows up as a hash mismatch. Worker counts share one hash: the sharded
// stream must not depend on them.
func TestMonteCarloStreamsPinned(t *testing.T) {
	nets := pinnedNets(t)
	type run func(p pinnedNet, wires rctree.WireAssignment, h hash.Hash) error
	runs := []struct {
		name string
		run  run
	}{
		{"serial", func(p pinnedNet, w rctree.WireAssignment, h hash.Hash) error {
			var s []float64
			var err error
			if w == nil {
				s, err = MonteCarlo(p.tree, p.lib, p.assign, p.model, 500, 9)
			} else {
				s, err = MonteCarloSized(p.tree, p.lib, p.assign, w, p.model, 500, 9)
			}
			hashFloats(h, s...)
			return err
		}},
		{"parallel-w1", func(p pinnedNet, w rctree.WireAssignment, h hash.Hash) error {
			s, err := MonteCarloParallel(p.tree, p.lib, p.assign, w, p.model, 1000, 7, 1)
			hashFloats(h, s...)
			return err
		}},
		{"parallel-w3", func(p pinnedNet, w rctree.WireAssignment, h hash.Hash) error {
			s, err := MonteCarloParallel(p.tree, p.lib, p.assign, w, p.model, 1000, 7, 3)
			hashFloats(h, s...)
			return err
		}},
		{"adaptive-tol0.01", func(p pinnedNet, w rctree.WireAssignment, h hash.Hash) error {
			s, est, err := MonteCarloAdaptive(p.tree, p.lib, p.assign, w, p.model, AdaptiveOptions{
				MaxSamples: 4000, Seed: 5, Workers: 3, Quantile: 0.05, Tol: 0.01,
			})
			hashFloats(h, s...)
			hashEstimate(h, est)
			return err
		}},
		{"adaptive-tol0", func(p pinnedNet, w rctree.WireAssignment, h hash.Hash) error {
			s, est, err := MonteCarloAdaptive(p.tree, p.lib, p.assign, w, p.model, AdaptiveOptions{
				MaxSamples: 1000, Seed: 5, Workers: 2, Quantile: 0.05,
			})
			hashFloats(h, s...)
			hashEstimate(h, est)
			return err
		}},
	}
	want := map[string]string{
		"a/serial":                 "7681ebf512d4334e",
		"a/parallel-w1":            "50a4c515ba0b5c2b",
		"a/parallel-w3":            "50a4c515ba0b5c2b",
		"a/adaptive-tol0.01":       "6f4c9c69976054b4",
		"a/adaptive-tol0":          "e184d014905d5c71",
		"a/serial+wires":           "7598a6947eff1b00",
		"a/parallel-w1+wires":      "a6ccea8e7aae68b8",
		"a/parallel-w3+wires":      "a6ccea8e7aae68b8",
		"a/adaptive-tol0.01+wires": "e634a8ca364d4307",
		"a/adaptive-tol0+wires":    "e1ecb411808b7d11",
		"b/serial":                 "fed9fcaa6828ed45",
		"b/parallel-w1":            "e57d6e90f2e2de0a",
		"b/parallel-w3":            "e57d6e90f2e2de0a",
		"b/adaptive-tol0.01":       "94de287387b2499c",
		"b/adaptive-tol0":          "a403ce212b3962ab",
		"b/serial+wires":           "347afb5baa73bc6e",
		"b/parallel-w1+wires":      "d00acffe314a22f9",
		"b/parallel-w3+wires":      "d00acffe314a22f9",
		"b/adaptive-tol0.01+wires": "ff1f773437fc6954",
		"b/adaptive-tol0+wires":    "d786c16a2bb27d21",
		"c/serial":                 "6fafb6cf4c2f51a9",
		"c/parallel-w1":            "3fdd04f1e394a9c5",
		"c/parallel-w3":            "3fdd04f1e394a9c5",
		"c/adaptive-tol0.01":       "93a9725482bf6ee2",
		"c/adaptive-tol0":          "b4586b34516cf75f",
		"c/serial+wires":           "0ba71444ebfb1132",
		"c/parallel-w1+wires":      "7fe6a7ca6a4d67fc",
		"c/parallel-w3+wires":      "7fe6a7ca6a4d67fc",
		"c/adaptive-tol0.01+wires": "89636d1aa8412448",
		"c/adaptive-tol0+wires":    "4fe76e1b22e73043",
	}
	for ni, p := range nets {
		for _, sized := range []bool{false, true} {
			var wires rctree.WireAssignment
			if sized {
				wires = p.wires
			}
			for _, r := range runs {
				name := r.name
				if sized {
					name += "+wires"
				}
				name = string(rune('a'+ni)) + "/" + name
				h := sha256.New()
				if err := r.run(p, wires, h); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := hex.EncodeToString(h.Sum(nil))[:16]
				if w, ok := want[name]; !ok || got != w {
					t.Errorf("%s: stream hash %s, want %s", name, got, w)
				}
			}
		}
	}
}
