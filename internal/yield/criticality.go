package yield

import (
	"vabuf/internal/device"
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// Criticality computes, for a fixed buffered tree under a variation
// model, the probability that each sink is the *statistically critical*
// one — the sink whose path realizes the minimum slack at the root. The
// probabilities are assembled from the tightness probabilities of the
// statistical MIN at every merge (eq. 39) and sum to 1 over the sinks.
//
// A nil model gives the deterministic criticality: mass 1 on the sink
// with the worst propagated RAT (ties split by the 0.5 tightness of
// deterministic ties).
func Criticality(tree *rctree.Tree, lib device.Library, assign map[rctree.NodeID]int,
	model *variation.Model) (map[rctree.NodeID]float64, error) {
	d, err := Compile(tree, lib, assign, nil, model)
	if err != nil {
		return nil, err
	}
	p := d.Tree
	// share[k] is the fraction of its parent merge's mass flowing into
	// position k (1 for single children): each merge sends t to the
	// children merged before it and 1 − t to the new one.
	share := make([]float64, p.Len())
	for i := range share {
		share[i] = 1
	}
	d.rootRAT(func(kids []int32, t float64) {
		last := len(kids) - 1
		for _, k := range kids[:last] {
			share[k] *= t
		}
		share[kids[last]] *= 1 - t
	})
	// Top-down in reverse post order, parents before children: multiply
	// shares along root-to-sink paths, turning share[i] into the mass
	// reaching position i (the root's share stays 1).
	out := make(map[rctree.NodeID]float64, tree.NumSinks())
	for i := p.Len() - 1; i >= 0; i-- {
		ks, ke := p.KidStart[i], p.KidStart[i+1]
		if ks == ke {
			out[p.Node[i]] = share[i]
		}
		for _, k := range p.Kids[ks:ke] {
			share[k] = share[i] * share[k]
		}
	}
	return out, nil
}
