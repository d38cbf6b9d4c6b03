// Package variation implements the paper's first-order process-variation
// model (§3): a registry of independent normal variation sources split into
// three classes — per-site random device variation Xᵢ, intra-die spatially
// correlated variation Yᵢ on a grid, and a single inter-die variable G —
// plus sparse first-order ("canonical") linear forms over those sources and
// the statistical operations the buffer-insertion DP needs: variance,
// covariance, correlation, the tightness-probability MIN (eq. 38–40), and
// Monte-Carlo sampling.
package variation

import "fmt"

// SourceID identifies one independent variation source within a Space.
type SourceID int32

// Class labels the physical origin of a variation source.
type Class uint8

// The three variation classes of §3.
const (
	// ClassRandom is purely random, per-device variation (§3.1).
	ClassRandom Class = iota
	// ClassSpatial is intra-die spatially correlated variation (§3.2).
	ClassSpatial
	// ClassInterDie is die-to-die variation shared by every device (§3.3).
	ClassInterDie
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassRandom:
		return "random"
	case ClassSpatial:
		return "spatial"
	case ClassInterDie:
		return "inter-die"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Source is one independent normally distributed variation variable.
type Source struct {
	ID    SourceID
	Class Class
	// Sigma is the standard deviation of the source. All model-allocated
	// sources are unit normal; coefficients carry the scaling.
	Sigma float64
}

// Space is a registry of independent variation sources. A single Space is
// shared by every linear form in one optimization run; SourceIDs index
// into it densely.
type Space struct {
	sources []Source
	// sigmas[id] is sources[id].Sigma, kept dense: every Var, Cov and
	// varDiff walk reads it once per term.
	sigmas []float64
}

// NewSpace returns an empty source registry.
func NewSpace() *Space { return &Space{} }

// Add registers a new independent source and returns its ID.
func (s *Space) Add(class Class, sigma float64) SourceID {
	id := SourceID(len(s.sources))
	if sigma < 0 {
		panic(fmt.Sprintf("variation: negative sigma %g for source %d", sigma, id))
	}
	s.sources = append(s.sources, Source{ID: id, Class: class, Sigma: sigma})
	s.sigmas = append(s.sigmas, sigma)
	return id
}

// Len returns the number of registered sources.
func (s *Space) Len() int { return len(s.sources) }

// Source returns the source with the given ID.
func (s *Space) Source(id SourceID) Source {
	return s.sources[id]
}

// Sigma returns the standard deviation of source id.
func (s *Space) Sigma(id SourceID) float64 { return s.sigmas[id] }

// CountByClass returns how many sources belong to each class.
func (s *Space) CountByClass() map[Class]int {
	out := make(map[Class]int, numClasses)
	for _, src := range s.sources {
		out[src.Class]++
	}
	return out
}

// Sample writes sample i of the keyed stream d into dst (allocated if
// nil or too short) and returns it: dst[j] = d.Norm(i, j)·σ_j for every
// source j, independent N(0, σ_j).
func (s *Space) Sample(d *Draws, i int, dst []float64) []float64 {
	if cap(dst) < len(s.sources) {
		dst = make([]float64, len(s.sources))
	}
	dst = dst[:len(s.sources)]
	d.Seek(i)
	for j, src := range s.sources {
		dst[j] = d.Next(SourceID(j)) * src.Sigma
	}
	return dst
}
