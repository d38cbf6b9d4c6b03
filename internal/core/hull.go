// Buffering at a legal site (eq. 27–28 / 35–36), with the convex-hull
// kernel for b-type libraries (Li & Shi, "An O(bn²) Time Algorithm for
// Optimal Buffer Insertion with b Buffer Types", arxiv 0710.4691)
// extended to the paper's 2P variation-aware frontier.
//
// addBuffers is one routine in two passes. The pick pass decides which
// (candidate, buffer type) pairs become buffered candidates; the build
// pass grows each target list once to the counted size and materializes
// the picks in (type, polarity, candidate) order. Only the pick rule
// differs between regimes, and it is resolved once per site:
//
//   - exact: every candidate the type can drive — one buffered candidate
//     per pair, b·m forms, provenance records and frontier slots per
//     site, for the next prune to thin out. It is the reference, and it
//     runs under HullOff, under 4P (whose partial order has no per-type
//     single-survivor property), and at sites whose originals are not
//     load-sorted (Stats.HullFallbacks).
//
//   - exact-means (deterministic runs and pbar = 0.5): a buffer decouples
//     the upstream tree from the downstream load, so every buffered
//     candidate of one type presents the same load C_b and at most one of
//     them — the one maximizing Q − R_b·C, on the upper convex hull of
//     the (C, Q) staircase — can survive the sweep. A flat scan picks
//     that argmax with the exactly mirrored buffered objective, and Li–Shi
//     predictive pruning skips even the argmax when an original candidate
//     or an already-picked stronger type dominates it on arrival. The scan
//     visits every staircase point rather than only hull vertices: the
//     argmax must be computed with bit-exact float semantics, and at
//     realistic frontier sizes the O(b·m) scan over two contiguous float64
//     columns costs less than the hull bookkeeping it would avoid. The win
//     is what the scan makes unnecessary: O(b + m) materialized candidates
//     per site instead of O(b·m).
//
//   - certain-dominance (2P at pbar > 0.5): probabilistic dominance is no
//     longer the mean order, so reduction to one candidate per type is
//     unsound. The rule picks the type's mean-best candidate and every
//     other one it does not *certainly* dominate under the probAtLeast
//     sandwich: identical load forms make the L-test a bitwise replica of
//     the sweep's own test, and the T-test is certified against the
//     pessimistic sigma bound σ(Tj − Ti) ≤ σTj + σTi with a relative
//     safety margin.
//
// Soundness rests on a property of both sweep rules: a candidate that
// gets pruned never enters the kept set, so it never influences any
// other prune decision. Leaving out a provably-pruned candidate therefore
// leaves every surviving candidate — keys, forms, provenance —
// bit-identical. DESIGN.md §14 carries the full argument, including the
// chain covering a pre-pruned candidate whose certifying dominator is
// itself pruned.
package core

import (
	"math"
	"sort"

	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// hullSafety is the relative slack on the pbar > 0.5 certainty test:
// the kernel claims "the sweep will certainly prune this candidate"
// only when the pessimistic-bound inequality holds with this much
// margin, so the sweep's own float evaluation (relative error ~1e-16)
// can never disagree with the certificate.
const hullSafety = 1e-6

// hullEmit is the arrival key (mean load, mean RAT) of a type-best
// candidate already picked at this site, kept for predictive pruning of
// later types.
type hullEmit struct {
	ln, tn float64
}

// hullScratch is the buffering pass's per-worker reusable state.
type hullScratch struct {
	// pmax[p][i] is max(tn[0..i]) over the polarity-p originals — the
	// running maximum the exact-means sweep would have seen before any
	// candidate with a larger load.
	pmax [2][]float64
	// emitted collects the type-best candidates picked for each target
	// polarity list at the current site.
	emitted [2][]hullEmit
	// picks lists the candidates picked at the current site, in build
	// order, and devs each type's device forms.
	picks []hullPick
	devs  []hullDev
}

// hullPick is one picked candidate: source candidate i of polarity p,
// buffered with library type bi.
type hullPick struct {
	bi, i int32
	p     int8
}

// hullDev holds one buffer type's load and delay forms at a site, and
// the load form's variance, which every pick of the type caches (zero
// when the frontier carries no moments).
type hullDev struct {
	cb, tb variation.Form
	cbVar  float64
}

// pickRule is how addBuffers chooses the candidates it buffers at a site
// (see the package comment of this file).
type pickRule uint8

const (
	pickExact pickRule = iota
	pickMeans
	pickCertain
)

// prep resets the per-site state for polarity p and builds the tn
// prefix-max over the n0 original candidates. It returns false when the
// originals are not weakly sorted by mean load — the invariant every
// frontier producer (leaf, wire propagation, merge + prune) maintains —
// in which case the site takes the exact pick rule.
func (hs *hullScratch) prep(p int, f *frontier, n0 int) bool {
	hs.emitted[p] = hs.emitted[p][:0]
	if cap(hs.pmax[p]) < n0 {
		hs.pmax[p] = make([]float64, n0)
	}
	hs.pmax[p] = hs.pmax[p][:n0]
	pm := hs.pmax[p]
	run := math.Inf(-1)
	for i := 0; i < n0; i++ {
		if i > 0 && f.ln[i] < f.ln[i-1] {
			return false
		}
		if f.tn[i] > run {
			run = f.tn[i]
		}
		pm[i] = run
	}
	return true
}

// dominatedOnArrival reports whether a buffered candidate with keys
// (cbn, v) would certainly be removed by the exact-means sweep of the
// target list: some original or already-emitted type best sorts before
// it — smaller load, or equal load with strictly larger RAT — with a
// RAT at least v. This is exactly the sweep's pruning predicate at
// pbar = 0.5, so the skip is sound (and complete) for that rule.
func (hs *hullScratch) dominatedOnArrival(target int, tf *frontier, n0 int, cbn, v float64) bool {
	if n0 > 0 {
		ln := tf.ln[:n0]
		lo := sort.SearchFloat64s(ln, cbn) // first original with ln >= cbn
		if lo > 0 && hs.pmax[target][lo-1] >= v {
			return true
		}
		for i := lo; i < n0 && ln[i] == cbn; i++ {
			if tf.tn[i] > v {
				return true
			}
		}
	}
	for _, eb := range hs.emitted[target] {
		if (eb.ln < cbn && eb.tn >= v) || (eb.ln == cbn && eb.tn > v) {
			return true
		}
	}
	return false
}

// addBuffers augments the polarity frontiers with buffered candidates at
// a legal site (eq. 27–28 / 35–36). Both C_b and T_b of a buffer at one
// site share the same underlying deviation (they are driven by the same
// device's process parameters), per eq. 23–24. A non-inverting buffer
// keeps the candidate's required polarity; an inverter flips it. Every
// pick rule yields frontiers whose surviving candidates are bit-identical
// after the prune.
//
// Drive-capability semantics: MaxLoad is compared against the
// candidate's *nominal* downstream load only. Under variation the true
// load is a distribution (L = ln ± σ), and a buffer is considered able
// to drive any candidate whose mean load fits — load σ is deliberately
// ignored, mirroring the deterministic library characterization the
// MaxLoad figure comes from. A yield-aware drive check (e.g. nominal +
// k·σ ≤ MaxLoad) would be a semantic change to the DP's feasible set;
// TestMaxLoadNominalSemantics pins the current behavior.
func (w *worker) addBuffers(id rctree.NodeID, pl polarityLists) polarityLists {
	e := w.eng
	hs := &w.hull
	out := pl
	// Snapshot the input lengths: buffered candidates are appended to the
	// same frontiers but must never be buffered again at this node.
	n0 := [2]int{pl[0].len(), pl[1].len()}
	rule := pickExact
	if e.hull {
		rule = pickCertain
		if w.prn.exactMeans {
			rule = pickMeans
			for p := 0; p < 2; p++ {
				if !hs.prep(p, pl[p], n0[p]) {
					rule = pickExact
					w.stats.HullFallbacks++
					break
				}
			}
		}
	}
	if rule != pickExact {
		w.stats.HullSites++
	}
	dev := e.deviation(id)
	needSig := w.prn.needSigmas()
	zT := w.prn.zT
	hs.picks, hs.devs = hs.picks[:0], hs.devs[:0]
	var need [2]int
	for bi, b := range e.opts.Library {
		// The scan keys below read cbn and tbn from the very forms the
		// build pushes, so no separately computed mirror can drift.
		d := hullDev{
			cb: dev.ScaleIn(w.terms, b.Cb0).Shift(b.Cb0),
			tb: dev.ScaleIn(w.terms, b.Tb0).Shift(b.Tb0),
		}
		if needSig {
			d.cbVar = d.cb.Var(e.space)
		}
		hs.devs = append(hs.devs, d)
		cbn, tbn := d.cb.Nominal, d.tb.Nominal
		nrb := -b.Rb
		var lOK bool
		var tbSigma float64
		if rule == pickCertain {
			cbSigma := math.Sqrt(d.cbVar)
			tbSigma = d.tb.Sigma(e.space)
			lOK = probAtLeastShared(0, cbSigma, cbSigma, w.prn.zL, d.cbVar)
		}
		for p := 0; p < 2; p++ {
			target := p
			if b.Inverting {
				target = 1 - p
			}
			src := pl[p]
			pick := func(i int) {
				hs.picks = append(hs.picks, hullPick{bi: int32(bi), i: int32(i), p: int8(p)})
				need[target]++
			}
			best, eligible := -1, 0
			bestV := 0.0
			for i := 0; i < n0[p]; i++ {
				// Drive-capability constraint, on nominal load.
				if b.MaxLoad > 0 && src.ln[i] > b.MaxLoad {
					continue
				}
				eligible++
				if rule == pickExact {
					pick(i)
					continue
				}
				// Mirrors the nominal arithmetic of SubIn + AXPYIn in the
				// build: tn + (-1)·tbn is bitwise tn − tbn, and the
				// add-of-product shape matches AXPYIn's so any FMA
				// contraction the compiler applies is applied to both.
				v := (src.tn[i] - tbn) + nrb*src.ln[i]
				if best < 0 || v > bestV {
					best, bestV = i, v
				}
			}
			if best < 0 {
				continue
			}
			if rule == pickMeans {
				if hs.dominatedOnArrival(target, pl[target], n0[target], cbn, bestV) {
					w.stats.HullSkipped += int64(eligible)
					continue
				}
				w.stats.HullSkipped += int64(eligible - 1)
				pick(best)
				// bestV is bitwise the nominal the build pushes (see above).
				hs.emitted[target] = append(hs.emitted[target], hullEmit{ln: cbn, tn: bestV})
				continue
			}
			// Certain dominance. L-leg: the mean-best and candidate i share
			// the load form cb, and L-dominance between identical forms is
			// decided by probAtLeast's covariance fallback, whose outcome
			// depends on how round(sqrt(Var))² compares to Var — a per-type
			// constant (lOK) evaluated with the sweep's own code; when it
			// says no, the type pre-prunes nothing. T-leg: the mean gap must
			// clear z_T times the pessimistic bound σ(T_best) + σ(T_i), each
			// bounded by the triangle inequality σ(T) ≤ σ(T_src) +
			// R_b·σ(L_src) + σ(tb) from the cached frontier sigmas, with
			// hullSafety slack. A gap that large passes the sweep's
			// certain-yes branch no matter the covariance — and the chain in
			// DESIGN.md §14 shows any kept candidate that pruned the
			// mean-best also certainly prunes i.
			var ubBest float64
			if lOK {
				ubBest = (src.st[best] + b.Rb*src.sl[best]) + tbSigma
			}
			for i := 0; i < n0[p]; i++ {
				if b.MaxLoad > 0 && src.ln[i] > b.MaxLoad {
					continue
				}
				if i != best && lOK {
					vi := (src.tn[i] - tbn) + nrb*src.ln[i]
					gap := bestV - vi
					ub := (src.st[i] + b.Rb*src.sl[i]) + tbSigma
					// Slack terms: relative on the sigma bound (covers the
					// Sigma computations' rounding) and on the means (the
					// sweep's gap is one subtraction, so its error scales
					// with |tn|, which can dwarf the sigmas).
					slack := hullSafety * (zT*(ubBest+ub) + math.Abs(bestV) + math.Abs(vi))
					if gap > 0 && gap >= zT*(ubBest+ub)+slack {
						w.stats.HullSkipped++
						continue
					}
				}
				pick(i)
			}
		}
	}
	for p := 0; p < 2; p++ {
		if need[p] > 0 {
			out[p] = w.room(out[p], need[p])
		}
	}
	for _, pk := range hs.picks {
		b := e.opts.Library[pk.bi]
		target := int(pk.p)
		if b.Inverting {
			target = 1 - target
		}
		src, i := pl[pk.p], int(pk.i)
		d := hs.devs[pk.bi]
		nt := src.tform(i).SubIn(w.terms, d.tb).AXPYIn(w.terms, -b.Rb, src.lform(i))
		ref := w.prov.alloc(prov{pred: src.ref[i], pred2: -1, node: id, aux: pk.bi, op: opBuffer})
		out[target].pushVar(d.cb, nt, d.cbVar, ref, e.space)
	}
	w.stats.Generated += int64(len(hs.picks))
	if rule != pickExact && len(hs.picks) > w.stats.HullPeak {
		w.stats.HullPeak = len(hs.picks)
	}
	return out
}
