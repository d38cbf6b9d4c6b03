package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestManhattan(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if got := p.Manhattan(q); got != 7 {
		t.Errorf("Manhattan = %g, want 7", got)
	}
	if got := p.Euclidean(q); got != 5 {
		t.Errorf("Euclidean = %g, want 5", got)
	}
}

func TestManhattanMetricProperties(t *testing.T) {
	// Symmetry, non-negativity, identity, triangle inequality.
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clampCoord(ax), clampCoord(ay)}
		b := Point{clampCoord(bx), clampCoord(by)}
		c := Point{clampCoord(cx), clampCoord(cy)}
		dab := a.Manhattan(b)
		dba := b.Manhattan(a)
		dac := a.Manhattan(c)
		dcb := c.Manhattan(b)
		if dab != dba {
			return false
		}
		if dab < 0 {
			return false
		}
		if a.Manhattan(a) != 0 {
			return false
		}
		return dab <= dac+dcb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampCoord maps arbitrary float64s from testing/quick into a sane
// coordinate range, discarding NaN/Inf.
func clampCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{10, 20}, Point{0, 5})
	if r.Min != (Point{0, 5}) || r.Max != (Point{10, 20}) {
		t.Fatalf("NewRect did not normalize: %+v", r)
	}
	if r.Width() != 10 || r.Height() != 15 {
		t.Errorf("Width/Height = %g/%g", r.Width(), r.Height())
	}
	if r.Center() != (Point{5, 12.5}) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Point{5, 5}) || r.Contains(Point{-1, 5}) {
		t.Error("Contains misbehaved")
	}
	if got := r.Clamp(Point{-3, 100}); got != (Point{0, 20}) {
		t.Errorf("Clamp = %v", got)
	}
	e := r.Expand(1)
	if e.Min != (Point{-1, 4}) || e.Max != (Point{11, 21}) {
		t.Errorf("Expand = %+v", e)
	}
	u := r.Union(NewRect(Point{-5, 0}, Point{1, 1}))
	if u.Min != (Point{-5, 0}) || u.Max != (Point{10, 20}) {
		t.Errorf("Union = %+v", u)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{{1, 1}, {-2, 5}, {3, 0}}
	bb := BoundingBox(pts)
	if bb.Min != (Point{-2, 0}) || bb.Max != (Point{3, 5}) {
		t.Errorf("BoundingBox = %+v", bb)
	}
	for _, p := range pts {
		if !bb.Contains(p) {
			t.Errorf("bounding box does not contain %v", p)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BoundingBox(nil) did not panic")
		}
	}()
	BoundingBox(nil)
}

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(NewRect(Point{}, Point{100, 100}), 0); err == nil {
		t.Error("want error for zero cell size")
	}
	if _, err := NewGrid(NewRect(Point{}, Point{100, 100}), -5); err == nil {
		t.Error("want error for negative cell size")
	}
	if _, err := NewGrid(NewRect(Point{}, Point{100, 100}), math.NaN()); err == nil {
		t.Error("want error for NaN cell size")
	}
	// One row past the bound, a continent-sized die and an extent that
	// overflows to +Inf are refused before anything is allocated.
	for _, area := range []Rect{
		NewRect(Point{}, Point{256 * 500, 256*500 + 1}),
		NewRect(Point{}, Point{1e9, 1e9}),
		NewRect(Point{-math.MaxFloat64, 0}, Point{math.MaxFloat64, 0}),
	} {
		if _, err := NewGrid(area, 500); err == nil {
			t.Errorf("want error for a %g x %g µm area", area.Width(), area.Height())
		}
	}
	if g, err := NewGrid(NewRect(Point{}, Point{256 * 500, 256 * 500}), 500); err != nil || g.NumCells() != maxGridCells {
		t.Errorf("grid at the bound = %+v, %v; want %d cells", g, err, maxGridCells)
	}
}

func TestGridIndexing(t *testing.T) {
	g, err := NewGrid(NewRect(Point{0, 0}, Point{1000, 500}), 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cols != 10 || g.Rows != 5 {
		t.Fatalf("Cols/Rows = %d/%d", g.Cols, g.Rows)
	}
	if g.NumCells() != 50 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	// South-west corner is cell 0.
	if idx := g.CellIndex(Point{1, 1}); idx != 0 {
		t.Errorf("SW corner cell = %d", idx)
	}
	// Out-of-area points clamp.
	if idx := g.CellIndex(Point{-50, -50}); idx != 0 {
		t.Errorf("clamped SW = %d", idx)
	}
	if idx := g.CellIndex(Point{5000, 5000}); idx != g.NumCells()-1 {
		t.Errorf("clamped NE = %d", idx)
	}
	// Center of a cell round-trips.
	for _, idx := range []int{0, 7, 23, 49} {
		c := g.CellCenter(idx)
		if got := g.CellIndex(c); got != idx {
			t.Errorf("CellIndex(CellCenter(%d)) = %d", idx, got)
		}
	}
}

func TestGridDegenerateArea(t *testing.T) {
	g, err := NewGrid(NewRect(Point{5, 5}, Point{5, 5}), 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cols != 1 || g.Rows != 1 {
		t.Errorf("degenerate grid = %dx%d, want 1x1", g.Cols, g.Rows)
	}
	if g.CellIndex(Point{5, 5}) != 0 {
		t.Error("degenerate grid index != 0")
	}
}

func TestCellsWithin(t *testing.T) {
	g, err := NewGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 100)
	if err != nil {
		t.Fatal(err)
	}
	center := Point{500, 500}
	cells := g.CellsWithin(center, 150)
	if len(cells) == 0 {
		t.Fatal("no cells within radius")
	}
	for _, idx := range cells {
		if d := g.CellCenter(idx).Euclidean(center); d > 150 {
			t.Errorf("cell %d center at distance %g > 150", idx, d)
		}
	}
	// All returned indices ascend and are unique.
	for i := 1; i < len(cells); i++ {
		if cells[i] <= cells[i-1] {
			t.Errorf("cells not strictly ascending at %d: %v", i, cells)
		}
	}
	// A huge radius returns every cell.
	all := g.CellsWithin(center, 1e9)
	if len(all) != g.NumCells() {
		t.Errorf("huge radius returned %d cells, want %d", len(all), g.NumCells())
	}
	// Zero radius returns at most the containing cell's center match.
	near := g.CellsWithin(g.CellCenter(55), 1)
	if len(near) != 1 || near[0] != 55 {
		t.Errorf("tiny radius = %v, want [55]", near)
	}
}
