package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"vabuf/internal/stats"
	"vabuf/internal/variation"
)

// covRef is the plain merge walk over two sorted term lists: the
// covariance variation.Cov must reproduce bit for bit, aligned-prefix
// fast path or not.
func covRef(f, g variation.Form, space *variation.Space) float64 {
	c := 0.0
	i, j := 0, 0
	for i < len(f.Terms) && j < len(g.Terms) {
		a, b := f.Terms[i], g.Terms[j]
		switch {
		case a.ID < b.ID:
			i++
		case a.ID > b.ID:
			j++
		default:
			s := space.Sigma(a.ID)
			c += a.Coef * b.Coef * s * s
			i++
			j++
		}
	}
	return c
}

// randTerms draws a sorted, duplicate-free term list over n sources,
// each source present with probability one half.
func randTerms(r *rand.Rand, n int) []variation.Term {
	var ts []variation.Term
	for id := 0; id < n; id++ {
		if r.IntN(2) == 0 {
			continue
		}
		c := r.NormFloat64() * math.Pow(10, float64(r.IntN(5)-2))
		if c == 0 {
			c = 1
		}
		ts = append(ts, variation.Term{ID: variation.SourceID(id), Coef: c})
	}
	return ts
}

// checkSharedCov draws a space and a pair of load forms from seed — the
// second one shares the first's term slice (the aliased pair every
// buffered candidate of one type produces), carries the same source set
// with other coefficients, or is independent — and checks that:
//
//   - variation.Cov equals the merge-walk reference bit for bit;
//   - for an aliased pair, probAtLeastShared with the cached variance
//     answers what probAtLeast with variation.Cov answers, at the z of
//     pbar 0.5, 0.9 and 0.99 and for gap and the gaps around the
//     sandwich's edges;
//   - the pruner's dominates2P on a frontier built by push answers what
//     the two probAtLeast tests with variation.Cov answer.
func checkSharedCov(t *testing.T, seed uint64, gap float64) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	space := variation.NewSpace()
	n := 1 + r.IntN(48)
	for j := 0; j < n; j++ {
		sigma := r.Float64() * 2
		if r.IntN(8) == 0 {
			sigma = 0
		}
		space.Add(variation.ClassRandom, sigma)
	}
	lf := variation.Form{Nominal: r.Float64() * 100, Terms: randTerms(r, n)}
	kind := r.IntN(3)
	var lg variation.Form
	switch kind {
	case 0: // aliased: one term slice
		lg = variation.Form{Nominal: lf.Nominal + math.Abs(gap), Terms: lf.Terms}
	case 1: // same sources, other coefficients
		ts := make([]variation.Term, len(lf.Terms))
		for i, tm := range lf.Terms {
			ts[i] = variation.Term{ID: tm.ID, Coef: tm.Coef * (1 + 0.1*r.NormFloat64())}
		}
		lg = variation.Form{Nominal: lf.Nominal + r.Float64(), Terms: ts}
	default:
		lg = variation.Form{Nominal: r.Float64() * 100, Terms: randTerms(r, n)}
	}

	for _, pair := range [][2]variation.Form{{lf, lg}, {lg, lf}, {lf, lf}} {
		got, want := variation.Cov(pair[0], pair[1], space), covRef(pair[0], pair[1], space)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Cov = %v, merge walk = %v (kind %d)", got, want, kind)
		}
	}
	if v, c := lf.Var(space), variation.Cov(lf, lf, space); math.Float64bits(v) != math.Float64bits(c) {
		t.Fatalf("Var = %v, Cov(f, f) = %v", v, c)
	}

	sf, sg, vf := lf.Sigma(space), lg.Sigma(space), lf.Var(space)
	for _, pbar := range []float64{0.5, 0.9, 0.99} {
		z := 0.0
		if pbar > 0.5 {
			z = stats.Quantile(pbar)
		}
		if kind == 0 {
			for _, g := range []float64{gap, 0, -gap, math.SmallestNonzeroFloat64,
				z * sf, 2 * z * sf, z * sf * (1 + 1e-12), 2 * z * sf * (1 - 1e-12)} {
				got := probAtLeastShared(g, sf, sg, z, vf)
				want := probAtLeast(g, sf, sg, z, lf, lg, space)
				if got != want {
					t.Fatalf("pbar %v gap %v: shared %v, Cov %v (sf %v, var %v)", pbar, g, got, want, sf, vf)
				}
			}
		}
		if pbar == 0.5 {
			continue // the exact-means sweep never calls dominates2P
		}
		var st Stats
		p := newPruner(space, Options{PbarL: pbar, PbarT: pbar, FourP: DefaultFourP()}, &st, new(colPool))
		fr := newFrontier(new(colPool), 2, p.needSigmas())
		ta := variation.Form{Nominal: 50 + r.Float64(), Terms: randTerms(r, n)}
		tb := variation.Form{Nominal: 50 - r.Float64(), Terms: randTerms(r, n)}
		la, lb := lf, lg
		if lb.Nominal < la.Nominal {
			la, lb = lb, la
		}
		fr.push(la, ta, 0, space)
		fr.push(lb, tb, 1, space)
		got := p.dominates2P(fr, 0, 1)
		want := probAtLeast(lb.Nominal-la.Nominal, fr.sl[0], fr.sl[1], p.zL, la, lb, space) &&
			probAtLeast(ta.Nominal-tb.Nominal, fr.st[0], fr.st[1], p.zT, ta, tb, space)
		if got != want {
			t.Fatalf("pbar %v kind %d: dominates2P %v, Cov reference %v", pbar, kind, got, want)
		}
	}
}

// TestProbAtLeastSharedMatchesCov runs the differential check over a
// fixed set of seeds.
func TestProbAtLeastSharedMatchesCov(t *testing.T) {
	for seed := uint64(0); seed < 3000; seed++ {
		checkSharedCov(t, seed, float64(seed%7)*0.125)
	}
}

// FuzzProbAtLeastShared: the cached-variance covariance of aliased load
// forms, the aligned-prefix Cov and dominates2P agree with the plain
// covariance walk on fuzzer-chosen forms and gaps.
func FuzzProbAtLeastShared(f *testing.F) {
	f.Add(uint64(1), 0.0)
	f.Add(uint64(2), 0.5)
	f.Add(uint64(3), 1e-300)
	f.Add(uint64(4), 3.0)
	f.Fuzz(func(t *testing.T, seed uint64, gap float64) {
		checkSharedCov(t, seed, gap)
	})
}
