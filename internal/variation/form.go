package variation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"vabuf/internal/stats"
)

// Term is one first-order sensitivity: a coefficient on a single source.
type Term struct {
	ID   SourceID
	Coef float64
}

// Form is a sparse first-order (canonical) linear form over the sources of
// a Space (eq. 31–32 of the paper):
//
//	value = Nominal + Σ Terms[i].Coef · X_{Terms[i].ID}
//
// Terms are kept sorted by SourceID with no duplicates and no zero
// coefficients, so binary operations are linear merge walks. The zero value
// is the deterministic constant 0.
type Form struct {
	Nominal float64
	Terms   []Term
}

// Const returns a deterministic form with the given nominal value.
func Const(v float64) Form { return Form{Nominal: v} }

// NewForm builds a form from a nominal and a term list; the terms are
// copied, sorted and canonicalized (duplicates summed, zeros dropped).
func NewForm(nominal float64, terms []Term) Form {
	ts := make([]Term, len(terms))
	copy(ts, terms)
	slices.SortFunc(ts, func(a, b Term) int { return cmp.Compare(a.ID, b.ID) })
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].ID == t.ID {
			out[n-1].Coef += t.Coef
		} else {
			out = append(out, t)
		}
	}
	// Drop zero coefficients (including duplicates that cancelled).
	final := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			final = append(final, t)
		}
	}
	return Form{Nominal: nominal, Terms: final}
}

// IsDeterministic reports whether the form has no variation terms.
func (f Form) IsDeterministic() bool { return len(f.Terms) == 0 }

// Mean returns the expected value of the form (its nominal).
func (f Form) Mean() float64 { return f.Nominal }

// Shift returns f + d for a deterministic offset d.
func (f Form) Shift(d float64) Form {
	return Form{Nominal: f.Nominal + d, Terms: f.Terms}
}

// Scale returns s·f.
func (f Form) Scale(s float64) Form { return f.ScaleIn(nil, s) }

// Add returns f + g.
func (f Form) Add(g Form) Form { return f.AXPYIn(nil, 1, g) }

// Sub returns f - g.
func (f Form) Sub(g Form) Form { return f.AXPYIn(nil, -1, g) }

// AXPY returns f + s·g.
func (f Form) AXPY(s float64, g Form) Form { return f.AXPYIn(nil, s, g) }

// ScaleIn returns s·f with its terms taken from a (the heap when a is
// nil). The terms are always fresh, never aliased to f's.
func (f Form) ScaleIn(a *Arena, s float64) Form {
	if s == 0 {
		return Form{}
	}
	terms := a.take(len(f.Terms))
	for _, t := range f.Terms {
		terms = append(terms, Term{t.ID, s * t.Coef})
	}
	return Form{Nominal: s * f.Nominal, Terms: terms}
}

// AddIn returns f + g with its terms taken from a.
func (f Form) AddIn(a *Arena, g Form) Form { return f.AXPYIn(a, 1, g) }

// SubIn returns f - g with its terms taken from a.
func (f Form) SubIn(a *Arena, g Form) Form { return f.AXPYIn(a, -1, g) }

// AXPYIn returns f + s·g, merging the two sorted term lists in one pass,
// with the result terms taken from a (the heap when a is nil). This is
// the workhorse of the three key DP operations (eq. 33–37). When s is 0
// or g has no terms the result aliases f's terms.
func (f Form) AXPYIn(a *Arena, s float64, g Form) Form {
	if s == 0 || len(g.Terms) == 0 {
		return Form{Nominal: f.Nominal + s*g.Nominal, Terms: f.Terms}
	}
	terms := a.take(len(f.Terms) + len(g.Terms))
	i, j := 0, 0
	// Fast path: forms produced by the same DP node usually carry the
	// same source set, so the two sorted lists align index-for-index.
	// Walking the aligned prefix with one predictable branch per term
	// computes exactly the shared-ID expression of the merge below.
	for i < len(f.Terms) && i < len(g.Terms) && f.Terms[i].ID == g.Terms[i].ID {
		if c := f.Terms[i].Coef + s*g.Terms[i].Coef; c != 0 {
			terms = append(terms, Term{f.Terms[i].ID, c})
		}
		i++
	}
	j = i
	for i < len(f.Terms) && j < len(g.Terms) {
		x, y := f.Terms[i], g.Terms[j]
		switch {
		case x.ID < y.ID:
			terms = append(terms, x)
			i++
		case x.ID > y.ID:
			terms = append(terms, Term{y.ID, s * y.Coef})
			j++
		default:
			if c := x.Coef + s*y.Coef; c != 0 {
				terms = append(terms, Term{x.ID, c})
			}
			i++
			j++
		}
	}
	terms = append(terms, f.Terms[i:]...)
	for ; j < len(g.Terms); j++ {
		terms = append(terms, Term{g.Terms[j].ID, s * g.Terms[j].Coef})
	}
	return Form{Nominal: f.Nominal + s*g.Nominal, Terms: a.trim(terms)}
}

// Var returns the variance of the form under space: Σ coef²·sigma²
// (eq. 41–42).
func (f Form) Var(space *Space) float64 {
	v := 0.0
	for _, t := range f.Terms {
		s := space.Sigma(t.ID)
		v += t.Coef * t.Coef * s * s
	}
	return v
}

// AXPYVar returns the variance of f + s·g under space without building
// the form: the walk emits AXPYIn's coefficients, with its expressions and
// in its order, and sums them as Var does, so the result equals
// f.AXPY(s, g).Var(space) bit for bit.
func (f Form) AXPYVar(s float64, g Form, space *Space) float64 {
	if s == 0 || len(g.Terms) == 0 {
		return f.Var(space)
	}
	v := 0.0
	add := func(id SourceID, c float64) {
		sg := space.Sigma(id)
		v += c * c * sg * sg
	}
	i, j := 0, 0
	// Aligned-prefix fast path; see AXPYIn.
	for i < len(f.Terms) && i < len(g.Terms) && f.Terms[i].ID == g.Terms[i].ID {
		if c := f.Terms[i].Coef + s*g.Terms[i].Coef; c != 0 {
			add(f.Terms[i].ID, c)
		}
		i++
	}
	j = i
	for i < len(f.Terms) && j < len(g.Terms) {
		a, b := f.Terms[i], g.Terms[j]
		switch {
		case a.ID < b.ID:
			add(a.ID, a.Coef)
			i++
		case a.ID > b.ID:
			add(b.ID, s*b.Coef)
			j++
		default:
			if c := a.Coef + s*b.Coef; c != 0 {
				add(a.ID, c)
			}
			i++
			j++
		}
	}
	for ; i < len(f.Terms); i++ {
		add(f.Terms[i].ID, f.Terms[i].Coef)
	}
	for ; j < len(g.Terms); j++ {
		add(g.Terms[j].ID, s*g.Terms[j].Coef)
	}
	return v
}

// Sigma returns the standard deviation of the form under space.
func (f Form) Sigma(space *Space) float64 { return math.Sqrt(f.Var(space)) }

// Cov returns the covariance of f and g under space: Σ over shared sources
// of coef_f·coef_g·sigma² (the numerator of eq. 43).
func Cov(f, g Form, space *Space) float64 {
	c := 0.0
	i, j := 0, 0
	// Aligned-prefix fast path; see AXPYIn.
	for i < len(f.Terms) && i < len(g.Terms) && f.Terms[i].ID == g.Terms[i].ID {
		s := space.Sigma(f.Terms[i].ID)
		c += f.Terms[i].Coef * g.Terms[i].Coef * s * s
		i++
	}
	j = i
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

// Corr returns the correlation coefficient of f and g (eq. 43). It is 0
// when either form is deterministic.
func Corr(f, g Form, space *Space) float64 {
	return corrFrom(f, g, f.Sigma(space), g.Sigma(space), space)
}

// corrFrom is Corr given the sigmas sf, sg of f and g already in hand.
func corrFrom(f, g Form, sf, sg float64, space *Space) float64 {
	if sf == 0 || sg == 0 {
		return 0
	}
	rho := Cov(f, g, space) / (sf * sg)
	// Clamp tiny numerical excursions outside [-1, 1].
	return math.Max(-1, math.Min(1, rho))
}

// SigmaDiff returns the standard deviation of f - g computed directly from
// the term lists (eq. 9 / eq. 40): the variance of the difference is
// accumulated in AXPYVar's single merge walk, so no intermediate form is
// materialized and the hot pruning paths stay allocation-free.
func SigmaDiff(f, g Form, space *Space) float64 { return math.Sqrt(f.AXPYVar(-1, g, space)) }

// ProbGreater returns P(f > g) under the joint normal interpretation of
// the two forms (eq. 8).
func ProbGreater(f, g Form, space *Space) float64 {
	nom := f.Nominal - g.Nominal
	sd := SigmaDiff(f, g, space)
	if sd == 0 {
		switch {
		case nom > 0:
			return 1
		case nom < 0:
			return 0
		default:
			return 0.5
		}
	}
	return stats.Phi(nom / sd)
}

// Quantile returns the p-quantile of the form's normal distribution.
func (f Form) Quantile(p float64, space *Space) float64 {
	return stats.NormalQuantile(p, f.Nominal, f.Sigma(space))
}

// Eval evaluates the form at a sampled realization of the sources, as
// produced by Space.Sample.
func (f Form) Eval(samples []float64) float64 {
	v := f.Nominal
	for _, t := range f.Terms {
		v += t.Coef * samples[t.ID]
	}
	return v
}

// MinResult is the outcome of the statistical MIN of two forms.
type MinResult struct {
	// Form is the first-order approximation of min(f, g) via the tightness
	// probability (eq. 38): nominal matches Clark's exact mean; the
	// sensitivities are the tightness-weighted blend of the inputs.
	Form Form
	// Moments carries Clark's exact first two moments and the tightness
	// t = P(f < g).
	Moments stats.MinMoments
}

// Min computes the statistical minimum of two forms (eq. 38–40), keeping
// the result in canonical first-order shape. When one input is smaller
// with certainty the exact input form is returned unchanged.
func Min(f, g Form, space *Space) MinResult { return MinIn(nil, f, g, space) }

// MinIn is Min with the result terms taken from a (the heap when a is nil).
func MinIn(a *Arena, f, g Form, space *Space) MinResult { return extremeIn(a, 1, f, g, space) }

// Max computes the statistical maximum of two forms, max(f, g) =
// -min(-f, -g): Clark-exact mean and variance with tightness-blended
// sensitivities. The returned Tightness is P(f > g), the probability that
// f dominates the MAX.
func Max(f, g Form, space *Space) MinResult { return extremeIn(nil, -1, f, g, space) }

// extremeIn is the statistical MIN (sign 1) or MAX (sign -1) of f and g.
// The MAX is -min(-f, -g) without the negated copies: the difference's
// sigma, the sigmas and the correlation are unchanged by negating both
// inputs, so only the nominals handed to Clark's formulas and the
// resulting mean change sign. Negation is exact, so the result equals the
// MIN of the negated forms, negated, bit for bit.
func extremeIn(a *Arena, sign float64, f, g Form, space *Space) MinResult {
	if SigmaDiff(f, g, space) == 0 {
		// The difference is deterministic: the extreme is exactly one of
		// the inputs.
		m := stats.MinMoments{SigmaDiff: 0}
		if sign*f.Nominal <= sign*g.Nominal {
			if f.Nominal == g.Nominal {
				m.Tightness = 0.5
			} else {
				m.Tightness = 1
			}
			m.Mean = f.Nominal
			m.Var = f.Var(space)
			return MinResult{Form: f, Moments: m}
		}
		m.Tightness = 0
		m.Mean = g.Nominal
		m.Var = g.Var(space)
		return MinResult{Form: g, Moments: m}
	}
	sf := f.Sigma(space)
	sg := g.Sigma(space)
	rho := corrFrom(f, g, sf, sg, space)
	mom := stats.MinNormals(sign*f.Nominal, sf, sign*g.Nominal, sg, rho)
	mom.Mean *= sign
	t := mom.Tightness
	// Blend sensitivities: t·beta_f + (1-t)·beta_g (eq. 38), then set the
	// nominal to Clark's exact mean (the -sigma·phi(...) correction).
	blended := Form{Nominal: mom.Mean, Terms: blendIn(a, t, f.Terms, 1-t, g.Terms)}
	// Moment matching: the tightness blend preserves the mean but
	// understates the variance of the extreme; rescale the sensitivities
	// so the form carries Clark's exact second moment while keeping the
	// blended correlation structure. blendIn's terms are fresh, so the
	// in-place rescale cannot alias the inputs.
	if vb := blended.Var(space); vb > 0 && mom.Var > 0 {
		s := math.Sqrt(mom.Var / vb)
		for i := range blended.Terms {
			blended.Terms[i].Coef *= s
		}
	}
	return MinResult{Form: blended, Moments: mom}
}

// blendIn returns the terms of tf·f + tg·g, taken from a, in one merge
// pass with the floating-point behaviour of f.Scale(tf).Add(g.Scale(tg)):
// a zero blend weight drops that side entirely (Scale(0) returns the
// empty form), and only coefficients that cancel on shared sources are
// dropped. The terms are always fresh (never aliased), so callers may
// rescale them in place.
func blendIn(a *Arena, tf float64, fts []Term, tg float64, gts []Term) []Term {
	if tf == 0 {
		fts = nil
	}
	if tg == 0 {
		gts = nil
	}
	terms := a.take(len(fts) + len(gts))
	i, j := 0, 0
	// Aligned-prefix fast path; see AXPYIn.
	for i < len(fts) && i < len(gts) && fts[i].ID == gts[i].ID {
		if c := (tf * fts[i].Coef) + (tg * gts[i].Coef); c != 0 {
			terms = append(terms, Term{fts[i].ID, c})
		}
		i++
	}
	j = i
	for i < len(fts) && j < len(gts) {
		x, y := fts[i], gts[j]
		switch {
		case x.ID < y.ID:
			terms = append(terms, Term{x.ID, tf * x.Coef})
			i++
		case x.ID > y.ID:
			terms = append(terms, Term{y.ID, tg * y.Coef})
			j++
		default:
			if c := (tf * x.Coef) + (tg * y.Coef); c != 0 {
				terms = append(terms, Term{x.ID, c})
			}
			i++
			j++
		}
	}
	for ; i < len(fts); i++ {
		terms = append(terms, Term{fts[i].ID, tf * fts[i].Coef})
	}
	for ; j < len(gts); j++ {
		terms = append(terms, Term{gts[j].ID, tg * gts[j].Coef})
	}
	return a.trim(terms)
}

// String renders the form compactly for debugging.
func (f Form) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.6g", f.Nominal)
	for _, t := range f.Terms {
		fmt.Fprintf(&b, "%+.3g·x%d", t.Coef, t.ID)
	}
	return b.String()
}
