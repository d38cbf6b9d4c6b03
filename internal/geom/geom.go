// Package geom provides the small amount of planar geometry used by the
// routing-tree and spatial-variation substrates: points in micrometers,
// axis-aligned rectangles, the Manhattan metric, and uniform grids.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the die, in micrometers.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Manhattan returns the L1 (rectilinear-wiring) distance between p and q.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Euclidean returns the L2 distance between p and q.
func (p Point) Euclidean(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with Min <= Max in both coordinates.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points, normalizing
// the corner order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the X extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the Y extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (closed on all edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Expand grows r by d on every side (d may be negative to shrink).
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// BoundingBox returns the smallest rectangle containing all pts.
// It panics if pts is empty.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingBox of empty point set")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// Grid overlays a uniform cell grid on a rectangle. Cells are indexed
// (col, row) from the rectangle's Min corner; cell (0,0) is the south-west
// corner. A Grid is the geometric backbone of the spatial-correlation model.
type Grid struct {
	Area Rect
	// Cell is the edge length of one (square) grid cell, in micrometers.
	Cell float64
	// Cols and Rows are the number of cells in X and Y.
	Cols, Rows int
}

// maxGridCells bounds the cells of one grid: 65,536 cells of the
// variation model's default 500 µm edge cover a 128 mm square die, 39×
// the largest built-in net (the 8-level H-tree's 1,681). A grid is the
// spatial model's per-cell source list, so the bound keeps a tree with
// far-flung coordinates — an inline tree is untrusted input — from
// allocating one source per cell of a continent-sized die.
const maxGridCells = 1 << 16

// NewGrid builds a grid of square cells of edge length cell covering area.
// The last column/row may extend past area.Max so coverage is complete.
// A grid of more than maxGridCells cells is an error.
func NewGrid(area Rect, cell float64) (Grid, error) {
	if !(cell > 0) {
		return Grid{}, fmt.Errorf("geom: grid cell size must be positive, got %g", cell)
	}
	if area.Width() < 0 || area.Height() < 0 {
		return Grid{}, fmt.Errorf("geom: grid area is inverted: %+v", area)
	}
	cols := math.Max(1, math.Ceil(area.Width()/cell))
	rows := math.Max(1, math.Ceil(area.Height()/cell))
	if !(cols*rows <= maxGridCells) { // NaN and Inf extents fail too
		return Grid{}, fmt.Errorf("geom: %g x %g µm area needs %g cells of %g µm, more than %d",
			area.Width(), area.Height(), cols*rows, cell, maxGridCells)
	}
	return Grid{Area: area, Cell: cell, Cols: int(cols), Rows: int(rows)}, nil
}

// NumCells returns the total number of grid cells.
func (g Grid) NumCells() int { return g.Cols * g.Rows }

// CellIndex returns the linear index of the cell containing p. Points
// outside the grid area are clamped to the nearest cell.
func (g Grid) CellIndex(p Point) int {
	col, row := g.CellCoords(p)
	return row*g.Cols + col
}

// CellCoords returns the (col, row) of the cell containing p, clamped to
// the grid extents.
func (g Grid) CellCoords(p Point) (col, row int) {
	col = int((p.X - g.Area.Min.X) / g.Cell)
	row = int((p.Y - g.Area.Min.Y) / g.Cell)
	col = min(max(col, 0), g.Cols-1)
	row = min(max(row, 0), g.Rows-1)
	return col, row
}

// CellCenter returns the center point of the cell with linear index idx.
func (g Grid) CellCenter(idx int) Point {
	col := idx % g.Cols
	row := idx / g.Cols
	return Point{
		X: g.Area.Min.X + (float64(col)+0.5)*g.Cell,
		Y: g.Area.Min.Y + (float64(row)+0.5)*g.Cell,
	}
}

// CellsWithin returns the linear indices of all cells whose centers are
// within radius of p, in ascending index order.
func (g Grid) CellsWithin(p Point, radius float64) []int {
	var out []int
	lo := Point{p.X - radius, p.Y - radius}
	hi := Point{p.X + radius, p.Y + radius}
	c0, r0 := g.CellCoords(lo)
	c1, r1 := g.CellCoords(hi)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			idx := row*g.Cols + col
			if g.CellCenter(idx).Euclidean(p) <= radius {
				out = append(out, idx)
			}
		}
	}
	return out
}
