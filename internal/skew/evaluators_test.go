package skew

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
	"vabuf/internal/yield"
)

// hashWords feeds little-endian words into h.
func hashWords(h hash.Hash, ws ...uint64) {
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// hashForm feeds a form's nominal and every term (ID and coefficient
// bits) into h, so two forms hash equal only when they are bit-identical.
func hashForm(h hash.Hash, f variation.Form) {
	hashWords(h, math.Float64bits(f.Nominal), uint64(len(f.Terms)))
	for _, t := range f.Terms {
		hashWords(h, uint64(t.ID), math.Float64bits(t.Coef))
	}
}

// TestCanonicalEvaluatorsPinned pins SHA-256 hashes of every canonical
// evaluator of a fixed buffered design — yield.Propagate's root form,
// yield.PropagateSized's under per-edge wire overrides, the
// yield.Criticality map and Propagate's skew and latency forms — on two
// benchgen nets under the heterogeneous, homogeneous and nil models. Each
// case starts from a fresh model, so the order in which the evaluators
// resolve buffer sites (and thereby number the per-site random sources)
// is pinned too.
func TestCanonicalEvaluatorsPinned(t *testing.T) {
	want := map[string]string{
		"s12/hetero": "1da5eeb4125245a1",
		"s12/homo":   "34dc8a666c189f75",
		"s12/nil":    "1f570e06455b5d88",
		"s40/hetero": "f84fc10583d40ef8",
		"s40/homo":   "da382b1e629b6ec1",
		"s40/nil":    "360c0992c4dc66bc",
	}
	wlib := rctree.DefaultWireLibrary()
	lib := device.DefaultLibrary()
	for _, net := range []struct {
		name string
		spec benchgen.Spec
	}{
		{"s12", benchgen.Spec{Sinks: 12, Seed: 3}},
		{"s40", benchgen.Spec{Sinks: 40, Seed: 8}},
	} {
		tr, err := benchgen.Random(net.spec)
		if err != nil {
			t.Fatal(err)
		}
		assign := make(map[rctree.NodeID]int)
		wires := make(rctree.WireAssignment)
		for i := range tr.Nodes {
			n := &tr.Nodes[i]
			if n.BufferOK && i%3 == 0 {
				assign[n.ID] = i % len(lib)
			}
			if n.ID != tr.Root && i%4 == 1 {
				wires[n.ID] = wlib[i%len(wlib)].Params
			}
		}
		for _, m := range []string{"hetero", "homo", "nil"} {
			var model *variation.Model
			if m != "nil" {
				cfg := variation.DefaultConfig(tr.BoundingBox().Expand(100))
				cfg.Heterogeneous = m == "hetero"
				if model, err = variation.NewModel(cfg); err != nil {
					t.Fatal(err)
				}
			}
			h := sha256.New()
			rat, err := yield.Propagate(tr, lib, assign, model)
			if err != nil {
				t.Fatal(err)
			}
			hashForm(h, rat)
			sized, err := yield.PropagateSized(tr, lib, assign, wires, model)
			if err != nil {
				t.Fatal(err)
			}
			hashForm(h, sized)
			crit, err := yield.Criticality(tr, lib, assign, model)
			if err != nil {
				t.Fatal(err)
			}
			sinks := make([]rctree.NodeID, 0, len(crit))
			for id := range crit {
				sinks = append(sinks, id)
			}
			slices.Sort(sinks)
			for _, id := range sinks {
				hashWords(h, uint64(id), math.Float64bits(crit[id]))
			}
			sk, lat, err := Propagate(tr, lib, assign, model)
			if err != nil {
				t.Fatal(err)
			}
			hashForm(h, sk)
			hashForm(h, lat)
			key := net.name + "/" + m
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[key] {
				t.Errorf("%s: evaluator hash %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestMinimizePinned pins SHA-256 hashes of skew.Minimize's result — the
// assignment, the skew form, SkewMean, SkewSigma, SkewQ, LatencyMean,
// NumBuffers, Candidates and PeakList — on two benchgen nets under the
// heterogeneous and homogeneous models. The DP's merges run the
// statistical MAX and MIN of every pair of delay forms, so any change to
// their arithmetic, to pruning or to the order of site resolution shows.
func TestMinimizePinned(t *testing.T) {
	want := map[string]string{
		"s12/hetero": "fc8930a4babd6002",
		"s12/homo":   "03a698167aa6cc5a",
		"s20/hetero": "ae62c856a8dbbe58",
		"s20/homo":   "5e3e64b13f0afe9d",
	}
	for _, net := range []struct {
		name string
		spec benchgen.Spec
	}{
		{"s12", benchgen.Spec{Sinks: 12, Seed: 9}},
		{"s20", benchgen.Spec{Sinks: 20, Seed: 6}},
	} {
		tr, err := benchgen.Random(net.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"hetero", "homo"} {
			cfg := variation.DefaultConfig(tr.BoundingBox().Expand(100))
			cfg.Heterogeneous = m == "hetero"
			model, err := variation.NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Minimize(tr, Options{Library: skewLib(), Model: model})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			ids := make([]rctree.NodeID, 0, len(res.Assignment))
			for id := range res.Assignment {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for _, id := range ids {
				hashWords(h, uint64(id), uint64(res.Assignment[id]))
			}
			hashForm(h, res.Skew)
			hashWords(h, math.Float64bits(res.SkewMean), math.Float64bits(res.SkewSigma),
				math.Float64bits(res.SkewQ), math.Float64bits(res.LatencyMean),
				uint64(res.NumBuffers), uint64(res.Candidates), uint64(res.PeakList))
			key := net.name + "/" + m
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[key] {
				t.Errorf("%s: Minimize hash %s, want %s (%d buffers, %d candidates, peak %d)",
					key, got, want[key], res.NumBuffers, res.Candidates, res.PeakList)
			}
		}
	}
}
