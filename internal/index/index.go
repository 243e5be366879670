// Package index implements the slicing (index arithmetic) primitives at the
// heart of the universal one-sided algorithm: half-open 1-D intervals, 2-D
// rectangles, and regular tile grids with interval→tile overlap queries.
//
// All intervals are half-open [Begin, End) in global matrix coordinates,
// matching the bound() arithmetic of Algorithm 1/2 in the paper.
package index

import (
	"fmt"
	"slices"
)

// Interval is a half-open range [Begin, End) of global indices.
type Interval struct {
	Begin, End int
}

// NewInterval returns the interval [begin, end). It panics if end < begin,
// which always indicates a logic error in slicing arithmetic.
func NewInterval(begin, end int) Interval {
	if end < begin {
		panic(fmt.Sprintf("index: invalid interval [%d, %d)", begin, end))
	}
	return Interval{Begin: begin, End: end}
}

// Len returns the number of indices covered by the interval.
func (iv Interval) Len() int { return iv.End - iv.Begin }

// Empty reports whether the interval covers no indices.
func (iv Interval) Empty() bool { return iv.End <= iv.Begin }

// Contains reports whether i lies within the interval.
func (iv Interval) Contains(i int) bool { return i >= iv.Begin && i < iv.End }

// ContainsInterval reports whether other lies entirely within iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.Empty() {
		return true
	}
	return other.Begin >= iv.Begin && other.End <= iv.End
}

// Intersect returns the intersection of two intervals. This is the bound()
// operation from Algorithm 1 (lines 29-31): the overlap of two tile extents.
// The result may be empty, in which case Empty() reports true and Len() is
// clamped to zero semantics by callers.
func (iv Interval) Intersect(other Interval) Interval {
	b := max(iv.Begin, other.Begin)
	e := min(iv.End, other.End)
	if e < b {
		return Interval{Begin: b, End: b}
	}
	return Interval{Begin: b, End: e}
}

// Overlaps reports whether the two intervals share at least one index.
func (iv Interval) Overlaps(other Interval) bool {
	return max(iv.Begin, other.Begin) < min(iv.End, other.End)
}

// Shift returns the interval translated by offset.
func (iv Interval) Shift(offset int) Interval {
	return Interval{Begin: iv.Begin + offset, End: iv.End + offset}
}

// Localize re-expresses iv relative to origin, i.e. the global-to-local
// offset conversion footnoted in §4.1 of the paper.
func (iv Interval) Localize(origin int) Interval {
	return iv.Shift(-origin)
}

func (iv Interval) String() string { return fmt.Sprintf("[%d:%d)", iv.Begin, iv.End) }

// Rect is an axis-aligned 2-D index region: a row interval × column interval.
type Rect struct {
	Rows, Cols Interval
}

// NewRect builds a rectangle from row and column bounds.
func NewRect(rowBegin, rowEnd, colBegin, colEnd int) Rect {
	return Rect{Rows: NewInterval(rowBegin, rowEnd), Cols: NewInterval(colBegin, colEnd)}
}

// Shape returns the (rows, cols) extent of the rectangle.
func (r Rect) Shape() (rows, cols int) { return r.Rows.Len(), r.Cols.Len() }

// Area returns the number of elements covered.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.Rows.Len() * r.Cols.Len()
}

// Empty reports whether the rectangle covers no elements.
func (r Rect) Empty() bool { return r.Rows.Empty() || r.Cols.Empty() }

// Intersect returns the overlap of two rectangles.
func (r Rect) Intersect(other Rect) Rect {
	return Rect{Rows: r.Rows.Intersect(other.Rows), Cols: r.Cols.Intersect(other.Cols)}
}

// Overlaps reports whether two rectangles share at least one element.
func (r Rect) Overlaps(other Rect) bool {
	return r.Rows.Overlaps(other.Rows) && r.Cols.Overlaps(other.Cols)
}

// ContainsRect reports whether other lies entirely within r.
func (r Rect) ContainsRect(other Rect) bool {
	return r.Rows.ContainsInterval(other.Rows) && r.Cols.ContainsInterval(other.Cols)
}

// Localize re-expresses the rectangle relative to an origin element.
func (r Rect) Localize(rowOrigin, colOrigin int) Rect {
	return Rect{Rows: r.Rows.Localize(rowOrigin), Cols: r.Cols.Localize(colOrigin)}
}

func (r Rect) String() string { return fmt.Sprintf("%v x %v", r.Rows, r.Cols) }

// TileIdx identifies a tile within a tile grid by (row, col) grid position.
type TileIdx struct {
	Row, Col int
}

func (t TileIdx) String() string { return fmt.Sprintf("(%d,%d)", t.Row, t.Col) }

// Grid describes a regular tiling of a Rows×Cols matrix into tiles of shape
// TileRows×TileCols. Edge tiles may be ragged (smaller) when the tile shape
// does not divide the matrix shape. Grid implements the tile_bounds and
// overlapping_tiles primitives from Table 1 of the paper.
type Grid struct {
	Rows, Cols         int // matrix shape
	TileRows, TileCols int // nominal tile shape
}

// NewGrid constructs a tile grid. It panics on non-positive dimensions,
// which always indicates a construction bug rather than a runtime condition.
func NewGrid(rows, cols, tileRows, tileCols int) Grid {
	if rows <= 0 || cols <= 0 || tileRows <= 0 || tileCols <= 0 {
		panic(fmt.Sprintf("index: invalid grid %dx%d tiles %dx%d", rows, cols, tileRows, tileCols))
	}
	return Grid{Rows: rows, Cols: cols, TileRows: tileRows, TileCols: tileCols}
}

// GridShape returns the number of tile rows and tile columns
// (the grid_shape() primitive).
func (g Grid) GridShape() (tileRows, tileCols int) {
	return ceilDiv(g.Rows, g.TileRows), ceilDiv(g.Cols, g.TileCols)
}

// NumTiles returns the total number of tiles in the grid.
func (g Grid) NumTiles() int {
	tr, tc := g.GridShape()
	return tr * tc
}

// Valid reports whether idx addresses a tile inside the grid.
func (g Grid) Valid(idx TileIdx) bool {
	tr, tc := g.GridShape()
	return idx.Row >= 0 && idx.Row < tr && idx.Col >= 0 && idx.Col < tc
}

// TileBounds returns the global index rectangle covered by tile idx
// (the tile_bounds() primitive). Edge tiles are clipped to the matrix shape.
func (g Grid) TileBounds(idx TileIdx) Rect {
	if !g.Valid(idx) {
		panic(fmt.Sprintf("index: tile %v out of grid", idx))
	}
	r0 := idx.Row * g.TileRows
	c0 := idx.Col * g.TileCols
	return NewRect(r0, min(r0+g.TileRows, g.Rows), c0, min(c0+g.TileCols, g.Cols))
}

// TileShape returns the (rows, cols) extent of tile idx after edge clipping.
func (g Grid) TileShape(idx TileIdx) (rows, cols int) {
	b := g.TileBounds(idx)
	return b.Shape()
}

// TileAt returns the index of the tile containing global element (row, col).
func (g Grid) TileAt(row, col int) TileIdx {
	if row < 0 || row >= g.Rows || col < 0 || col >= g.Cols {
		panic(fmt.Sprintf("index: element (%d,%d) outside %dx%d matrix", row, col, g.Rows, g.Cols))
	}
	return TileIdx{Row: row / g.TileRows, Col: col / g.TileCols}
}

// OverlappingTiles returns, in row-major order, every tile whose bounds
// intersect the given slice of the matrix (the overlapping_tiles()
// primitive). The slice is clipped to the matrix shape first; an empty
// clipped slice yields no tiles.
func (g Grid) OverlappingTiles(slice Rect) []TileIdx {
	return g.AppendOverlappingTiles(nil, slice)
}

// AppendOverlappingTiles appends OverlappingTiles(slice) to dst and returns
// the extended slice. It grows dst at most once, to the exact count, so a
// caller that reuses dst across queries allocates only while its capacity
// climbs to the largest answer.
func (g Grid) AppendOverlappingTiles(dst []TileIdx, slice Rect) []TileIdx {
	clipped := slice.Intersect(NewRect(0, g.Rows, 0, g.Cols))
	if clipped.Empty() {
		return dst
	}
	rBegin := clipped.Rows.Begin / g.TileRows
	rEnd := (clipped.Rows.End-1)/g.TileRows + 1
	cBegin := clipped.Cols.Begin / g.TileCols
	cEnd := (clipped.Cols.End-1)/g.TileCols + 1
	dst = slices.Grow(dst, (rEnd-rBegin)*(cEnd-cBegin))
	for r := rBegin; r < rEnd; r++ {
		for c := cBegin; c < cEnd; c++ {
			dst = append(dst, TileIdx{Row: r, Col: c})
		}
	}
	return dst
}

// RowPanel returns the full-width slice covering the given row interval,
// i.e. M(rows, :) — used by Algorithm 1 line 13.
func (g Grid) RowPanel(rows Interval) Rect {
	return Rect{Rows: rows, Cols: NewInterval(0, g.Cols)}
}

// ColPanel returns the full-height slice covering the given column interval,
// i.e. M(:, cols) — used by Algorithm 2 line 13.
func (g Grid) ColPanel(cols Interval) Rect {
	return Rect{Rows: NewInterval(0, g.Rows), Cols: cols}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
