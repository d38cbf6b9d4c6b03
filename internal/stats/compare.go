package stats

import "math"

// SigmaDiff returns the standard deviation of the difference T1 - T2 of
// two jointly normal variables with standard deviations s1, s2 and
// correlation coefficient rho (eq. 9 of the paper):
//
//	sigma_{T1,T2} = sqrt(s1^2 - 2*rho*s1*s2 + s2^2)
//
// The result is zero when the variables are perfectly correlated with
// equal spread (or both deterministic), in which case the difference is a
// constant.
func SigmaDiff(s1, s2, rho float64) float64 {
	v := s1*s1 - 2*rho*s1*s2 + s2*s2
	if v <= 0 {
		// Guard against tiny negative values from cancellation.
		return 0
	}
	return math.Sqrt(v)
}

// ProbGreater returns P(T1 > T2) for jointly normal T1 ~ N(mu1, s1),
// T2 ~ N(mu2, s2) with correlation rho, via the closed form of eq. 8:
//
//	P(T1 > T2) = Phi((mu1 - mu2) / sigma_{T1,T2})
//
// When the difference is deterministic (sigma_{T1,T2} == 0) the result is
// 1, 0 or 0.5 depending on the sign of mu1 - mu2, with ties at 0.5 so that
// ProbGreater(a,b) + ProbGreater(b,a) == 1 always holds.
func ProbGreater(mu1, s1, mu2, s2, rho float64) float64 {
	sd := SigmaDiff(s1, s2, rho)
	d := mu1 - mu2
	if sd == 0 {
		switch {
		case d > 0:
			return 1
		case d < 0:
			return 0
		default:
			return 0.5
		}
	}
	return Phi(d / sd)
}

// MinMoments holds the first two moments of min(T1, T2) for jointly normal
// T1, T2, together with the tightness probability used to keep the result
// in first-order canonical form (eq. 38–40).
type MinMoments struct {
	// Mean is E[min(T1, T2)].
	Mean float64
	// Var is Var[min(T1, T2)] from Clark's second-moment formula.
	Var float64
	// Tightness is t_{1,2} = P(T1 < T2): the probability that T1 is the
	// smaller (dominant for a MIN) input.
	Tightness float64
	// SigmaDiff is the standard deviation of T1 - T2 (eq. 9/40).
	SigmaDiff float64
}

// MinNormals computes Clark's moments for min(T1, T2) where T1 ~ N(mu1, s1)
// and T2 ~ N(mu2, s2) with correlation rho. Using min(X,Y) = -max(-X,-Y)
// on Clark's classical max-moment formulas:
//
//	a     = (mu1 - mu2)/sd          sd = SigmaDiff(s1, s2, rho)
//	E     = mu1*Phi(-a) + mu2*Phi(a) - sd*phi(a)
//	E2    = (mu1^2+s1^2)*Phi(-a) + (mu2^2+s2^2)*Phi(a) - (mu1+mu2)*sd*phi(a)
//	Var   = E2 - E^2
//
// When sd == 0 the two variables differ by a constant and the exact
// min is whichever has the smaller mean.
func MinNormals(mu1, s1, mu2, s2, rho float64) MinMoments {
	sd := SigmaDiff(s1, s2, rho)
	if sd == 0 {
		m := MinMoments{SigmaDiff: 0}
		if mu1 <= mu2 {
			m.Mean = mu1
			m.Var = s1 * s1
			if mu1 == mu2 {
				m.Tightness = 0.5
			} else {
				m.Tightness = 1
			}
		} else {
			m.Mean = mu2
			m.Var = s2 * s2
			m.Tightness = 0
		}
		return m
	}
	a := (mu1 - mu2) / sd
	t := Phi(-a) // P(T1 < T2)
	pdf := PhiPDF(a)
	mean := mu1*t + mu2*(1-t) - sd*pdf
	e2 := (mu1*mu1+s1*s1)*t + (mu2*mu2+s2*s2)*(1-t) - (mu1+mu2)*sd*pdf
	v := e2 - mean*mean
	if v < 0 {
		v = 0
	}
	return MinMoments{Mean: mean, Var: v, Tightness: t, SigmaDiff: sd}
}
