package variation

import (
	"fmt"
	"math"
	"sync/atomic"

	"vabuf/internal/geom"
)

// ModelConfig selects the variation classes and budgets of §5.1.
type ModelConfig struct {
	// Die is the chip area the spatial grid covers.
	Die geom.Rect
	// GridCell is the spatial grid pitch; the paper uses 500 µm.
	GridCell float64
	// CorrRadius is the distance at which spatial correlation tapers off;
	// the paper uses about 2 mm (2000 µm).
	CorrRadius float64
	// RandomFrac, SpatialFrac, InterDieFrac are the 1-sigma budgets of each
	// class as a fraction of a device characteristic's nominal value; the
	// paper budgets 5% (0.05) for each.
	RandomFrac   float64
	SpatialFrac  float64
	InterDieFrac float64
	// Heterogeneous selects the heterogeneous spatial model: the spatial
	// sigma ramps linearly from ~0 at the south-west corner to twice the
	// budget at the north-east corner (mean = SpatialFrac across the die).
	// When false the spatial sigma is SpatialFrac everywhere (homogeneous).
	Heterogeneous bool
}

// DefaultConfig returns the paper's experimental setup (§5.1) for the given
// die: 500 µm grid, 2 mm taper, 5% budgets for every class.
func DefaultConfig(die geom.Rect) ModelConfig {
	return ModelConfig{
		Die:          die,
		GridCell:     500,
		CorrRadius:   2000,
		RandomFrac:   0.05,
		SpatialFrac:  0.05,
		InterDieFrac: 0.05,
	}
}

// Model owns the variation sources for one die: a single inter-die source,
// one spatial source per grid cell, and lazily allocated per-site random
// sources. It converts a site (a legal buffer position) into the sparse
// relative-deviation terms that the device model multiplies into C_b and
// T_b (eq. 23–24).
type Model struct {
	Space  *Space
	Config ModelConfig
	Grid   geom.Grid

	interDie SourceID
	spatial  []SourceID // one per grid cell
	// random maps caller-stable site keys to per-site random sources, so
	// that the same physical location always refers to the same source no
	// matter which candidate solution mentions it.
	random map[int]SourceID
	// cached spatial weight stencils keyed by grid cell, since every site
	// inside one cell sees the same neighbourhood weights.
	stencil map[int][]Term
	// devs memoizes Deviation per (site key, location): up to
	// deviationLocs locations per key, oldest first; see Deviation.
	devs map[int][]siteDeviation
	// token identifies this model instance process-wide. Source allocation
	// is lazy and per-instance, so forms (and anything derived from them,
	// like cached DP frontiers) are only comparable within one instance;
	// caches key on the token to never mix instances.
	token uint64
}

// deviationLocs bounds how many locations the Deviation memo keeps per
// site key. Several nets placed on one die share one model, and each
// net numbers its nodes from 0, so one key names a site in every net
// that has that node: a block of up to deviationLocs nets resolved in
// turn is answered from the memo alone. The bound keeps a long-lived
// shared model whose sites keep moving from growing without limit.
const deviationLocs = 8

// siteDeviation is one memoized Deviation result.
type siteDeviation struct {
	loc  geom.Point
	form Form
}

// modelTokens hands out process-unique, non-zero model instance tokens.
var modelTokens atomic.Uint64

// Token returns the process-unique identity of this model instance
// (non-zero; callers use 0 for "no model").
func (m *Model) Token() uint64 { return m.token }

// NewModel allocates the inter-die and spatial sources for the given
// configuration.
func NewModel(cfg ModelConfig) (*Model, error) {
	if cfg.RandomFrac < 0 || cfg.SpatialFrac < 0 || cfg.InterDieFrac < 0 {
		return nil, fmt.Errorf("variation: negative budget in %+v", cfg)
	}
	if cfg.RandomFrac+cfg.SpatialFrac+cfg.InterDieFrac == 0 {
		return nil, fmt.Errorf("variation: all budgets zero; use a deterministic run instead")
	}
	if cfg.GridCell <= 0 {
		cfg.GridCell = 500
	}
	if cfg.CorrRadius <= 0 {
		cfg.CorrRadius = 2000
	}
	grid, err := geom.NewGrid(cfg.Die, cfg.GridCell)
	if err != nil {
		return nil, fmt.Errorf("variation: %w", err)
	}
	m := &Model{
		Space:   NewSpace(),
		Config:  cfg,
		Grid:    grid,
		random:  make(map[int]SourceID),
		stencil: make(map[int][]Term),
		devs:    make(map[int][]siteDeviation),
		token:   modelTokens.Add(1),
	}
	m.interDie = m.Space.Add(ClassInterDie, 1)
	if cfg.SpatialFrac > 0 {
		m.spatial = make([]SourceID, grid.NumCells())
		for i := range m.spatial {
			m.spatial[i] = m.Space.Add(ClassSpatial, 1)
		}
	}
	return m, nil
}

// RandomSourceFor returns (allocating on first use) the per-site random
// source for the given stable site key.
func (m *Model) RandomSourceFor(siteKey int) SourceID {
	if id, ok := m.random[siteKey]; ok {
		return id
	}
	id := m.Space.Add(ClassRandom, 1)
	m.random[siteKey] = id
	return id
}

// spatialSigmaAt returns the local spatial 1-sigma budget at loc: constant
// for the homogeneous model, a linear SW→NE ramp averaging SpatialFrac for
// the heterogeneous model (§5.1).
func (m *Model) spatialSigmaAt(loc geom.Point) float64 {
	f := m.Config.SpatialFrac
	if !m.Config.Heterogeneous {
		return f
	}
	die := m.Config.Die
	w := die.Width()
	h := die.Height()
	u := 0.5
	if w+h > 0 {
		u = ((loc.X - die.Min.X) + (loc.Y - die.Min.Y)) / (w + h)
	}
	u = math.Max(0, math.Min(1, u))
	return 2 * f * u
}

// spatialStencil returns the unit-variance neighbourhood weights for a grid
// cell: Gaussian taper over all cells whose centers are within CorrRadius,
// normalized so the weight vector has unit L2 norm (the aggregate spatial
// deviation has variance 1 before the local budget scales it). Figure 4's
// shared-region behaviour falls out of overlapping stencils.
func (m *Model) spatialStencil(cell int) []Term {
	if st, ok := m.stencil[cell]; ok {
		return st
	}
	center := m.Grid.CellCenter(cell)
	cells := m.Grid.CellsWithin(center, m.Config.CorrRadius)
	// Gaussian taper: weight ~ exp(-d^2 / (2 tau^2)) with tau chosen so the
	// weight has decayed to ~5% at CorrRadius ("tapers off at about 2mm").
	tau := m.Config.CorrRadius / 2.45
	terms := make([]Term, 0, len(cells))
	norm := 0.0
	for _, c := range cells {
		d := m.Grid.CellCenter(c).Euclidean(center)
		w := math.Exp(-0.5 * (d / tau) * (d / tau))
		terms = append(terms, Term{ID: m.spatial[c], Coef: w})
		norm += w * w
	}
	norm = math.Sqrt(norm)
	for i := range terms {
		terms[i].Coef /= norm
	}
	m.stencil[cell] = terms
	return terms
}

// Deviation returns the relative (unit-less) first-order deviation of a
// device characteristic at the given site: a sparse form D with E[D] = 0
// and Var(D) = randomFrac² + spatialSigma(loc)² + interDieFrac². A device
// characteristic then becomes nominal·(1 + D) per eq. 23–24. siteKey must
// be stable per physical location so identical sites share their random
// source across candidate solutions.
//
// The form is memoized per (siteKey, loc), for up to deviationLocs
// locations per key: a repeated call returns the same form, whose terms
// the caller must treat as read-only (as every Form operation does), and
// touches no model state. Only a miss writes, replacing the key's oldest
// location once it holds deviationLocs, so resolving one tree never
// evicts that tree's own sites, and a model on which every site has been
// resolved is safe for concurrent readers.
func (m *Model) Deviation(siteKey int, loc geom.Point) Form {
	memo := m.devs[siteKey]
	for _, d := range memo {
		if d.loc == loc {
			return d.form
		}
	}
	terms := make([]Term, 0, 16)
	if f := m.Config.RandomFrac; f > 0 {
		terms = append(terms, Term{ID: m.RandomSourceFor(siteKey), Coef: f})
	}
	if m.Config.SpatialFrac > 0 {
		sig := m.spatialSigmaAt(loc)
		if sig > 0 {
			cell := m.Grid.CellIndex(loc)
			for _, t := range m.spatialStencil(cell) {
				terms = append(terms, Term{ID: t.ID, Coef: sig * t.Coef})
			}
		}
	}
	if f := m.Config.InterDieFrac; f > 0 {
		terms = append(terms, Term{ID: m.interDie, Coef: f})
	}
	form := NewForm(0, terms)
	if len(memo) == deviationLocs {
		copy(memo, memo[1:])
		memo[len(memo)-1] = siteDeviation{loc: loc, form: form}
	} else {
		m.devs[siteKey] = append(memo, siteDeviation{loc: loc, form: form})
	}
	return form
}

// TotalFracAt returns the combined 1-sigma relative budget at loc,
// sqrt(random² + spatial(loc)² + interdie²) — useful for assertions and
// reporting.
func (m *Model) TotalFracAt(loc geom.Point) float64 {
	s := m.spatialSigmaAt(loc)
	r := m.Config.RandomFrac
	g := m.Config.InterDieFrac
	return math.Sqrt(r*r + s*s + g*g)
}
