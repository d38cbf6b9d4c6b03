package core

import (
	"cmp"
	"context"
	"slices"

	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// pruner prunes a candidate frontier in place according to the active rule.
type pruner struct {
	space *variation.Space
	rule  Rule
	// 2P thresholds; exactMeans is the pbar == 0.5 fast path where the
	// probability order equals the mean order (Lemma 4).
	pbarL, pbarT float64
	exactMeans   bool
	// zL, zT are the standard-normal quantiles of pbarL, pbarT (the t̄ of
	// Theorem 2), cached for the pbar > 0.5 dominance test.
	zL, zT float64
	// 4P quantile z-values precomputed from FourPParams.
	zAlphaL, zAlphaU, zBetaL, zBetaU float64
	// ctx, when non-nil, bounds the pairwise 4P prune, which is quadratic
	// and can dwarf the per-node check granularity of the engine. ctxErr
	// latches the context's error when it fires mid-prune.
	ctx    context.Context
	ctxErr error
	// stats sink
	stats *Stats

	// cols supplies the columns the mean-sort gathers into and the 4P
	// quantile keys; the columns a gather replaces go back to it.
	cols *colPool
	// perm and dead are reusable sort and 4P-prune scratch.
	perm []int32
	dead []bool
}

// newPruner builds the pruner of one worker, drawing columns from cols.
func newPruner(space *variation.Space, opts Options, st *Stats, cols *colPool) *pruner {
	p := &pruner{
		space: space,
		rule:  opts.Rule,
		pbarL: opts.PbarL,
		pbarT: opts.PbarT,
		stats: st,
		cols:  cols,
	}
	p.exactMeans = opts.PbarL == 0.5 && opts.PbarT == 0.5
	if !p.exactMeans {
		p.zL = stats.Quantile(opts.PbarL)
		p.zT = stats.Quantile(opts.PbarT)
	}
	if opts.Rule == Rule4P {
		p.zAlphaL = stats.Quantile(opts.FourP.AlphaL)
		p.zAlphaU = stats.Quantile(opts.FourP.AlphaU)
		p.zBetaL = stats.Quantile(opts.FourP.BetaL)
		p.zBetaU = stats.Quantile(opts.FourP.BetaU)
	}
	return p
}

// needSigmas reports whether frontiers must carry cached standard
// deviations for this pruner.
func (p *pruner) needSigmas() bool {
	return p.rule == Rule4P || !p.exactMeans
}

// sortByMean orders the frontier ascending by mean loading, breaking ties
// by descending mean RAT so that the sweep keeps the better-T candidate of
// a tie first.
//
// The sort runs over an identity permutation with the element comparator,
// then applies the permutation to every parallel slice. slices.SortFunc is
// deterministic given the comparison results, and the comparator depends
// only on the originating candidate, so the resulting order is exactly the
// order the previous []*Candidate layout produced — a bit-identity the
// differential tests pin down.
func (p *pruner) sortByMean(f *frontier) {
	n := f.len()
	if cap(p.perm) < n {
		p.perm = make([]int32, n)
	}
	perm := p.perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	ln, tn := f.ln, f.tn
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(ln[a], ln[b]); c != 0 {
			return c
		}
		return cmp.Compare(tn[b], tn[a])
	})
	// Apply the permutation by gathering each column into a fresh one
	// from the pool; the old column goes back to the pool.
	cp := p.cols
	f.ln = gather(&cp.f64, f.ln, perm)
	f.tn = gather(&cp.f64, f.tn, perm)
	if f.sl != nil {
		f.sl = gather(&cp.f64, f.sl, perm)
		f.st = gather(&cp.f64, f.st, perm)
		f.vl = gather(&cp.f64, f.vl, perm)
	}
	f.lt = gather(&cp.terms, f.lt, perm)
	f.tt = gather(&cp.terms, f.tt, perm)
	f.ref = gather(&cp.i32, f.ref, perm)
}

// gather returns src permuted by perm in a column from fl and hands src
// back to fl.
func gather[T any](fl *freeList[T], src []T, perm []int32) []T {
	dst := fl.get(len(perm))[:len(perm)]
	for i, j := range perm {
		dst[i] = src[j]
	}
	fl.put(src)
	return dst
}

// prune removes dominated candidates in place and returns the surviving
// frontier, sorted ascending by mean L (and, as a consequence of the
// sweep, ascending in mean T).
func (p *pruner) prune(f *frontier) *frontier {
	if f.len() <= 1 {
		return f
	}
	if p.rule == Rule4P {
		p.prune4P(f)
		return f
	}
	p.prune2P(f)
	return f
}

// prune2P is the paper's sweep (§2.3): sort by mean L, then drop every
// candidate some kept candidate dominates. At pbar = 0.5 dominance is
// exactly the mean order (Lemma 4), so testing the last-kept candidate is
// exact and the sweep is the linear deterministic van Ginneken prune
// (Theorem 1). For pbar > 0.5 the kept set is no longer a strict mean
// staircase; a candidate can only be dominated by a kept candidate with a
// strictly larger mean T (Lemma 4 again), so the sweep tests exactly
// those. In practice solutions from the same subtree are highly
// correlated, dominance probabilities are extreme, and the survivors stay
// close to the pbar = 0.5 staircase (§2.3's discussion of Figure 2).
func (p *pruner) prune2P(f *frontier) {
	p.sortByMean(f)
	n := f.len()
	if p.exactMeans {
		// Flat sweep over the T-key slice alone — no term lists, no sigmas.
		// move only writes slots < i, so tn[i] is always unclobbered when
		// read and tn[kept-1] is the last kept candidate.
		tn := f.tn
		kept := 0
		for i := 0; i < n; i++ {
			if kept > 0 && tn[i] <= tn[kept-1] {
				p.stats.Pruned++
				continue
			}
			f.move(kept, i)
			kept++
		}
		f.truncate(kept)
		return
	}
	kept := 0
	for i := 0; i < n; i++ {
		dominated := false
		for k := kept - 1; k >= 0; k-- {
			if f.tn[k] <= f.tn[i] {
				// Cannot dominate at pbar > 0.5 (Lemma 4).
				continue
			}
			if p.dominates2P(f, k, i) {
				dominated = true
				break
			}
		}
		if dominated {
			p.stats.Pruned++
			continue
		}
		f.move(kept, i)
		kept++
	}
	f.truncate(kept)
}

// dominates2P reports whether candidate a dominates candidate b under
// eq. 6–7, assuming meanL(a) <= meanL(b) from the sort. Thresholds are
// tested with >= so that exact duplicates (probability exactly 0.5) are
// treated as redundant. Only meaningful for pbar > 0.5 pruners; the
// exactMeans fast path is inlined in prune2P.
func (p *pruner) dominates2P(f *frontier, a, b int) bool {
	// P(X > Y) >= pbar ⇔ mean gap >= z(pbar)·sigma(X-Y). The exact sigma
	// needs the covariance of the two forms, but sigma(X-Y) is always in
	// [|sx-sy|, sx+sy], giving a certain-yes / certain-no sandwich that
	// usually avoids touching the term lists (the correlation argument of
	// §2.3 / Figure 2: solutions from the same subtree are so correlated
	// that a small mean edge is near-certain dominance).
	//
	// Two load forms that share one term slice (every buffered candidate
	// of one type at a site carries the same cbForm) have the variance of
	// that form as their covariance, and the frontier caches it.
	gapL := f.ln[b] - f.ln[a]
	if la, lb := f.lt[a], f.lt[b]; len(la) > 0 && len(la) == len(lb) && &la[0] == &lb[0] {
		if !probAtLeastShared(gapL, f.sl[a], f.sl[b], p.zL, f.vl[a]) {
			return false
		}
	} else if !probAtLeast(gapL, f.sl[a], f.sl[b], p.zL, f.lform(a), f.lform(b), p.space) {
		return false
	}
	return probAtLeast(f.tn[a]-f.tn[b], f.st[a], f.st[b], p.zT, f.tform(a), f.tform(b), p.space)
}

// probAtLeast reports whether Phi(gap / sigma(f-g)) >= Phi(z), i.e.
// gap >= z*sigma(f-g), trying the sigma bounds before the exact
// covariance. gap may be any sign; z >= 0.
func probAtLeast(gap, sf, sg, z float64, f, g variation.Form, space *variation.Space) bool {
	if ok, settled := sigmaSandwich(gap, sf, sg, z); settled {
		return ok
	}
	return gapClears(gap, sf, sg, z, variation.Cov(f, g, space))
}

// probAtLeastShared is probAtLeast for two forms with one term list,
// whose covariance is that list's variance v. Cov(f, g) of such forms
// evaluates the very products Var does, in the same order, so the two
// agree bit for bit.
func probAtLeastShared(gap, sf, sg, z, v float64) bool {
	if ok, settled := sigmaSandwich(gap, sf, sg, z); settled {
		return ok
	}
	return gapClears(gap, sf, sg, z, v)
}

// sigmaSandwich decides gap >= z*sigma(f-g) from the sigmas alone when
// it can, using sigma(f-g) in [|sf-sg|, sf+sg]; settled is false when
// the answer needs the covariance.
func sigmaSandwich(gap, sf, sg, z float64) (ok, settled bool) {
	if z == 0 {
		return gap >= 0, true
	}
	if gap < 0 {
		return false, true
	}
	hi := sf + sg
	if gap >= z*hi {
		return true, true // certain even at the most pessimistic correlation
	}
	lo := sf - sg
	if lo < 0 {
		lo = -lo
	}
	if gap < z*lo {
		return false, true // impossible even at the most optimistic correlation
	}
	return false, false
}

// gapClears is the exact test gap >= z*sigma(f-g) given Cov(f, g).
func gapClears(gap, sf, sg, z, cov float64) bool {
	varDiff := sf*sf + sg*sg - 2*cov
	if varDiff <= 0 {
		return true // deterministic positive gap
	}
	return gap*gap >= z*z*varDiff
}

// prune4P is the pairwise partial-order pruning of the 4P rule (§2.2):
// candidate j is removed when some candidate i has its upper loading
// quantile below j's lower loading quantile AND its lower RAT quantile
// above j's upper RAT quantile. This is inherently O(N²), but with the
// SoA layout the quantile quads are computed by four flat passes over
// contiguous float64 slices.
func (p *pruner) prune4P(f *frontier) {
	p.sortByMean(f) // helps locality; correctness does not depend on order
	n := f.len()
	// Quantile bounds in pool columns, handed back after the pass.
	lLo := p.quad(f.ln, f.sl, p.zAlphaL)
	lHi := p.quad(f.ln, f.sl, p.zAlphaU)
	tLo := p.quad(f.tn, f.st, p.zBetaL)
	tHi := p.quad(f.tn, f.st, p.zBetaU)
	if cap(p.dead) < n {
		p.dead = make([]bool, n)
	}
	dead := p.dead[:n]
	clear(dead)
	for i := 0; i < n; i++ {
		if dead[i] {
			continue
		}
		if i%64 == 0 && p.ctx != nil {
			if p.ctxErr = p.ctx.Err(); p.ctxErr != nil {
				break
			}
		}
		ilHi, itLo := lHi[i], tLo[i]
		for j := 0; j < n; j++ {
			if i == j || dead[j] {
				continue
			}
			// i dominates j per eq. 2–3.
			if ilHi < lLo[j] && itLo > tHi[j] {
				dead[j] = true
				p.stats.Pruned++
			}
		}
	}
	kept := 0
	for i := 0; i < n; i++ {
		if !dead[i] {
			f.move(kept, i)
			kept++
		}
	}
	f.truncate(kept)
	for _, q := range [...][]float64{lLo, lHi, tLo, tHi} {
		p.cols.f64.put(q)
	}
}

// quad returns the quantile-bound column nominal + z*sigma.
func (p *pruner) quad(nom, sig []float64, z float64) []float64 {
	dst := p.cols.f64.get(len(nom))[:len(nom)]
	for i := range nom {
		dst[i] = nom[i] + z*sig[i]
	}
	return dst
}
