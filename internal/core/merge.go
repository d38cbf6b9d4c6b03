package core

import (
	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// mergeCand combines candidate i of frontier a with candidate j of
// frontier b at node (eq. 29–30 / eq. 37–38): loads add, RATs take the
// statistical minimum. The result is appended to dst.
func (w *worker) mergeCand(dst *frontier, node rctree.NodeID, a *frontier, i int, b *frontier, j int) {
	res := variation.MinIn(w.terms, a.tform(i), b.tform(j), w.eng.space)
	l := a.lform(i).AddIn(w.terms, b.lform(j))
	ref := w.prov.alloc(prov{
		pred:  a.ref[i],
		pred2: b.ref[j],
		node:  node,
		op:    opMerge,
	})
	dst.push(l, res.Form, ref, w.eng.space)
	w.stats.Generated++
}

// mergeLinear is the Figure 1 merge: both inputs are sorted ascending in
// mean L and mean T (the invariant the 2P prune sweep establishes), so a
// merge-sort-like walk emits at most n+m-1 non-dominated combinations.
// The pointer whose candidate currently limits the merged RAT (the smaller
// mean T) advances, because only a better version of that side can improve
// the combination. The walk itself touches only the contiguous mean-T
// slices; term lists are read just for the emitted combinations.
func (w *worker) mergeLinear(node rctree.NodeID, a, b *frontier) (*frontier, error) {
	out := newFrontier(&w.cols, a.len()+b.len(), w.prn.needSigmas())
	at, bt := a.tn, b.tn
	i, j := 0, 0
	for i < len(at) && j < len(bt) {
		w.mergeCand(out, node, a, i, b, j)
		// Advance the side with the smaller mean T; advance both on ties.
		switch {
		case at[i] < bt[j]:
			i++
		case at[i] > bt[j]:
			j++
		default:
			i++
			j++
		}
	}
	if err := w.checkBudget(out.len()); err != nil {
		return nil, err
	}
	w.stats.Merges++
	return out, nil
}

// mergeCross is the O(n·m) cross-product merge the 4P partial order forces
// (§2.2): without a strict ordering no combination can be skipped.
func (w *worker) mergeCross(node rctree.NodeID, a, b *frontier) (*frontier, error) {
	if w.eng.maxCand > 0 && a.len()*b.len() > w.eng.maxCand {
		return nil, w.capacityErr(a.len() * b.len())
	}
	out := newFrontier(&w.cols, a.len()*b.len(), w.prn.needSigmas())
	for i := 0; i < a.len(); i++ {
		for j := 0; j < b.len(); j++ {
			w.mergeCand(out, node, a, i, b, j)
		}
	}
	w.stats.Merges++
	return out, nil
}

// merge dispatches on the active rule. Both inputs stay intact; the
// caller recycles them once the merged list is built.
func (w *worker) merge(node rctree.NodeID, a, b *frontier) (*frontier, error) {
	if w.eng.opts.Rule == Rule4P {
		return w.mergeCross(node, a, b)
	}
	return w.mergeLinear(node, a, b)
}
