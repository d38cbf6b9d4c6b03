package variation

import (
	"math"
	"sync"
	"testing"

	"vabuf/internal/geom"
)

func die10mm() geom.Rect {
	return geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 10000, Y: 10000})
}

func TestNewModelValidation(t *testing.T) {
	cfg := DefaultConfig(die10mm())
	cfg.RandomFrac = -1
	if _, err := NewModel(cfg); err == nil {
		t.Error("negative budget should error")
	}
	cfg = ModelConfig{Die: die10mm()}
	if _, err := NewModel(cfg); err == nil {
		t.Error("all-zero budgets should error")
	}
}

func TestModelSourceAllocation(t *testing.T) {
	m, err := NewModel(DefaultConfig(die10mm()))
	if err != nil {
		t.Fatal(err)
	}
	counts := m.Space.CountByClass()
	if counts[ClassInterDie] != 1 {
		t.Errorf("inter-die sources = %d", counts[ClassInterDie])
	}
	// 10 mm die / 500 µm cells = 20x20 grid.
	if counts[ClassSpatial] != 400 {
		t.Errorf("spatial sources = %d, want 400", counts[ClassSpatial])
	}
	if counts[ClassRandom] != 0 {
		t.Errorf("random sources pre-allocated: %d", counts[ClassRandom])
	}
	// Random sources are allocated per unique site and reused.
	a := m.RandomSourceFor(42)
	b := m.RandomSourceFor(42)
	c := m.RandomSourceFor(43)
	if a != b {
		t.Error("same site got different random sources")
	}
	if a == c {
		t.Error("different sites shared a random source")
	}
}

func TestDeviationBudget(t *testing.T) {
	cfg := DefaultConfig(die10mm())
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loc := geom.Point{X: 5000, Y: 5000}
	d := m.Deviation(7, loc)
	if d.Nominal != 0 {
		t.Errorf("deviation nominal = %g", d.Nominal)
	}
	want := math.Sqrt(3) * 0.05 // three independent 5% classes
	if got := d.Sigma(m.Space); math.Abs(got-want) > 1e-9 {
		t.Errorf("deviation sigma = %g, want %g", got, want)
	}
	if got := m.TotalFracAt(loc); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalFracAt = %g, want %g", got, want)
	}
}

func TestDeviationClassToggles(t *testing.T) {
	// D2D configuration: no spatial class.
	cfg := DefaultConfig(die10mm())
	cfg.SpatialFrac = 0
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Space.CountByClass()[ClassSpatial]; got != 0 {
		t.Errorf("spatial sources with zero budget: %d", got)
	}
	d := m.Deviation(1, geom.Point{X: 100, Y: 100})
	want := math.Sqrt(2) * 0.05
	if got := d.Sigma(m.Space); math.Abs(got-want) > 1e-9 {
		t.Errorf("D2D deviation sigma = %g, want %g", got, want)
	}
}

func TestSpatialCorrelationDecaysWithDistance(t *testing.T) {
	cfg := DefaultConfig(die10mm())
	cfg.RandomFrac = 0
	cfg.InterDieFrac = 0
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := geom.Point{X: 5000, Y: 5000}
	dBase := m.Deviation(0, base)
	// Figure 4's behaviour: nearby devices share regions (high correlation),
	// far devices share none (zero correlation).
	near := m.Deviation(1, geom.Point{X: 5300, Y: 5000}) // 300 µm away
	mid := m.Deviation(2, geom.Point{X: 7000, Y: 5000})  // 2 mm away
	far := m.Deviation(3, geom.Point{X: 9800, Y: 200})   // ~6.7 mm away
	rhoNear := Corr(dBase, near, m.Space)
	rhoMid := Corr(dBase, mid, m.Space)
	rhoFar := Corr(dBase, far, m.Space)
	if !(rhoNear > rhoMid) {
		t.Errorf("correlation did not decay: near %g, mid %g", rhoNear, rhoMid)
	}
	if rhoNear < 0.8 {
		t.Errorf("near correlation = %g, want high", rhoNear)
	}
	if rhoFar > 1e-6 {
		t.Errorf("far correlation = %g, want ~0", rhoFar)
	}
	// Same cell: correlation exactly 1 (identical stencils, no random part).
	same := m.Deviation(4, geom.Point{X: 5010, Y: 5010})
	if rho := Corr(dBase, same, m.Space); math.Abs(rho-1) > 1e-9 {
		t.Errorf("same-cell correlation = %g, want 1", rho)
	}
}

func TestRandomClassDecorrelates(t *testing.T) {
	// With random variation on, even same-cell devices are not perfectly
	// correlated.
	m, err := NewModel(DefaultConfig(die10mm()))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Deviation(0, geom.Point{X: 5000, Y: 5000})
	b := m.Deviation(1, geom.Point{X: 5010, Y: 5010})
	rho := Corr(a, b, m.Space)
	if rho >= 1-1e-9 || rho <= 0 {
		t.Errorf("same-cell different-site correlation = %g, want in (0,1)", rho)
	}
}

func TestHeterogeneousRamp(t *testing.T) {
	cfg := DefaultConfig(die10mm())
	cfg.Heterogeneous = true
	cfg.RandomFrac = 0
	cfg.InterDieFrac = 0
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := m.Deviation(0, geom.Point{X: 100, Y: 100}).Sigma(m.Space)
	mid := m.Deviation(1, geom.Point{X: 5000, Y: 5000}).Sigma(m.Space)
	ne := m.Deviation(2, geom.Point{X: 9900, Y: 9900}).Sigma(m.Space)
	if !(sw < mid && mid < ne) {
		t.Errorf("heterogeneous ramp not increasing SW→NE: %g, %g, %g", sw, mid, ne)
	}
	// Midpoint sees roughly the budget.
	if math.Abs(mid-0.05) > 0.005 {
		t.Errorf("mid-die sigma = %g, want ~0.05", mid)
	}
	// NE corner is roughly twice the budget.
	if ne < 0.08 {
		t.Errorf("NE sigma = %g, want ~0.10", ne)
	}
}

func TestInterDieFullyCorrelated(t *testing.T) {
	cfg := DefaultConfig(die10mm())
	cfg.RandomFrac = 0
	cfg.SpatialFrac = 0
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Deviation(0, geom.Point{X: 100, Y: 100})
	b := m.Deviation(1, geom.Point{X: 9900, Y: 9900})
	if rho := Corr(a, b, m.Space); math.Abs(rho-1) > 1e-12 {
		t.Errorf("inter-die-only correlation = %g, want 1", rho)
	}
}

func TestStencilCaching(t *testing.T) {
	m, err := NewModel(DefaultConfig(die10mm()))
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{X: 2500, Y: 2500}
	d1 := m.Deviation(0, p)
	d2 := m.Deviation(0, p)
	if !formsEqual(d1, d2) {
		t.Error("repeated Deviation for the same site differs")
	}
	if len(m.stencil) == 0 {
		t.Error("stencil cache unused")
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	cfg := ModelConfig{Die: die10mm(), RandomFrac: 0.05}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Config.GridCell != 500 || m.Config.CorrRadius != 2000 {
		t.Errorf("defaults not applied: %+v", m.Config)
	}
}

func TestDeviationMemo(t *testing.T) {
	cfg := DefaultConfig(die10mm())
	cfg.Heterogeneous = true
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := geom.Point{X: 1200, Y: 800}
	b := geom.Point{X: 8700, Y: 6100}
	d1 := m.Deviation(7, a)
	sources := m.Space.Len()
	d2 := m.Deviation(7, a)
	if !formsEqual(d1, d2) || &d1.Terms[0] != &d2.Terms[0] {
		t.Error("repeated Deviation at one (key, loc) is not the memoized form")
	}
	if m.Space.Len() != sources {
		t.Errorf("memo hit allocated sources: %d -> %d", sources, m.Space.Len())
	}

	// The same key at another location must answer what a fresh model
	// answers there, not the memoized form of the first location.
	fresh, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Deviation(7, b)
	got := m.Deviation(7, b)
	if !formsEqual(got, want) {
		t.Errorf("Deviation(7, %v) on a shared model = %v, fresh model %v", b, got, want)
	}
	if formsEqual(got, d1) {
		t.Error("moved site reused the old location's form")
	}
	if again := m.Deviation(7, a); !formsEqual(again, d1) {
		t.Errorf("Deviation(7, %v) changed after a moved lookup: %v, want %v", a, again, d1)
	}
}

// sitePlacements returns nets trees' worth of locations for the site keys
// 0..keys-1: net i places key k at its own point on the die, so every
// key has a different location in every net, as node IDs do on a die
// several nets share.
func sitePlacements(nets, keys int) [][]geom.Point {
	out := make([][]geom.Point, nets)
	for i := range out {
		out[i] = make([]geom.Point, keys)
		for k := range out[i] {
			out[i][k] = geom.Point{
				X: float64((k*733 + i*2917) % 9900),
				Y: float64((k*389 + i*4111) % 9900),
			}
		}
	}
	return out
}

// TestDeviationMemoAlternatingTrees resolves trees that place the same
// site keys at different locations on one model, in turn, more times
// than the memo's bound; every answer must equal what a fresh model
// resolving that tree alone answers. With two trees the second pass is
// all hits and allocates nothing.
func TestDeviationMemoAlternatingTrees(t *testing.T) {
	const keys = 40
	cfg := DefaultConfig(die10mm())
	cfg.Heterogeneous = true
	for _, nets := range []int{2, deviationLocs, deviationLocs + 3} {
		trees := sitePlacements(nets, keys)
		want := make([][]Form, nets)
		for i, locs := range trees {
			fresh, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k, loc := range locs {
				want[i] = append(want[i], fresh.Deviation(k, loc))
			}
		}
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 3; pass++ {
			for i, locs := range trees {
				for k, loc := range locs {
					if got := m.Deviation(k, loc); !formsEqual(got, want[i][k]) {
						t.Fatalf("%d nets, pass %d, tree %d key %d: %v, fresh model %v", nets, pass, i, k, got, want[i][k])
					}
				}
			}
		}
		if nets == deviationLocs+3 {
			continue // past the bound: correct answers, not all hits
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, locs := range trees {
				for k, loc := range locs {
					m.Deviation(k, loc)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%d nets: an alternating pass over resolved trees allocated %v times", nets, allocs)
		}
	}
}

// TestDeviationMemoKeepsOwnSites: once a key holds deviationLocs
// locations, resolving a tree replaces the oldest one, never a site of
// the tree being resolved, so the tree's repeated lookups stay hits.
func TestDeviationMemoKeepsOwnSites(t *testing.T) {
	m, err := NewModel(DefaultConfig(die10mm()))
	if err != nil {
		t.Fatal(err)
	}
	trees := sitePlacements(deviationLocs+1, 1)
	first := m.Deviation(0, trees[0][0])
	for _, locs := range trees[1:] {
		m.Deviation(0, locs[0])
	}
	last := trees[deviationLocs][0]
	held := m.Deviation(0, last)
	if again := m.Deviation(0, last); &again.Terms[0] != &held.Terms[0] {
		t.Error("a repeated lookup of the newest location missed")
	}
	if again := m.Deviation(0, trees[0][0]); &again.Terms[0] == &first.Terms[0] {
		t.Error("the oldest location survived a full memo's miss")
	}
}

// TestDeviationConcurrentReaders: many goroutines reading a model on
// which two trees' sites are resolved get the memoized forms and, since a
// hit never writes, pass the race detector.
func TestDeviationConcurrentReaders(t *testing.T) {
	m, err := NewModel(DefaultConfig(die10mm()))
	if err != nil {
		t.Fatal(err)
	}
	trees := sitePlacements(2, 64)
	want := make([][]Form, len(trees))
	for i, locs := range trees {
		for k, loc := range locs {
			want[i] = append(want[i], m.Deviation(k, loc))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(trees)
				for k, loc := range trees[i] {
					if got := m.Deviation(k, loc); &got.Terms[0] != &want[i][k].Terms[0] {
						errs <- "a reader got a form other than the memoized one"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
