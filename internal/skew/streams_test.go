package skew

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"vabuf/internal/benchgen"
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// TestMonteCarloStreamPinned pins SHA-256 hashes of skew.MonteCarlo's
// sample vectors for fixed (net, seed, n): any change to the sampling
// stream or the per-sample float operations shows up as a mismatch.
func TestMonteCarloStreamPinned(t *testing.T) {
	big, err := benchgen.Random(benchgen.Spec{Sinks: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tree *rctree.Tree
		lib  device.Library
		want string
	}{
		{"unbalanced", unbalancedTree(), skewLib(), "ca5d410c46144304"},
		{"benchgen30", big, device.DefaultLibrary(), "bc44502079b9d90e"},
	}
	for _, c := range cases {
		model, err := variation.NewModel(variation.DefaultConfig(c.tree.BoundingBox().Expand(100)))
		if err != nil {
			t.Fatal(err)
		}
		assign := make(map[rctree.NodeID]int)
		for i := range c.tree.Nodes {
			n := &c.tree.Nodes[i]
			if n.BufferOK && i%2 == 1 {
				assign[n.ID] = i % len(c.lib)
				model.Deviation(int(n.ID), n.Loc)
			}
		}
		s, err := MonteCarlo(c.tree, c.lib, assign, model, 700, 13)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		var b [8]byte
		for _, x := range s {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.want {
			t.Errorf("%s: stream hash %s, want %s", c.name, got, c.want)
		}
	}
}
