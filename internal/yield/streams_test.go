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

func pinnedNets(t testing.TB) []pinnedNet {
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
// shows up as a hash mismatch. Every worker count shares one hash:
// sample i depends only on (seed, i).
func TestMonteCarloStreamsPinned(t *testing.T) {
	nets := pinnedNets(t)
	type run func(p pinnedNet, wires rctree.WireAssignment, h hash.Hash) error
	runs := []struct {
		name string
		run  run
	}{
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
		"a/parallel-w1":            "2d2dc4694e240839",
		"a/parallel-w3":            "2d2dc4694e240839",
		"a/adaptive-tol0.01":       "e92a16dbc8d271f1",
		"a/adaptive-tol0":          "7cda5f74e7fd4de7",
		"a/parallel-w1+wires":      "0e1f1b38f191b473",
		"a/parallel-w3+wires":      "0e1f1b38f191b473",
		"a/adaptive-tol0.01+wires": "d9d86c82f7e5d25b",
		"a/adaptive-tol0+wires":    "98337c45c52e9cca",
		"b/parallel-w1":            "4188700aecc7d4b7",
		"b/parallel-w3":            "4188700aecc7d4b7",
		"b/adaptive-tol0.01":       "d37f2b1f1778ccc4",
		"b/adaptive-tol0":          "4958d5ef59b59d8b",
		"b/parallel-w1+wires":      "34e321a115d63430",
		"b/parallel-w3+wires":      "34e321a115d63430",
		"b/adaptive-tol0.01+wires": "b3435f9521be1b0f",
		"b/adaptive-tol0+wires":    "08d4ac93a9de7c62",
		"c/parallel-w1":            "99a22a0e2ab05a97",
		"c/parallel-w3":            "99a22a0e2ab05a97",
		"c/adaptive-tol0.01":       "17b84ecddc3d5fdc",
		"c/adaptive-tol0":          "fe5fee98a8fc923f",
		"c/parallel-w1+wires":      "3ab8afb41b417022",
		"c/parallel-w3+wires":      "3ab8afb41b417022",
		"c/adaptive-tol0.01+wires": "66fab185f2c60097",
		"c/adaptive-tol0+wires":    "eb0bfe8a7d1c358c",
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
