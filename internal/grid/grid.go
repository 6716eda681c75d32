// Package grid implements the lowest tier of the XAR hierarchical region
// discretization: the implicit square grid (Definition 1 of the paper).
//
// A System maps any point location to a unique grid cell numerically —
// grids are never materialized, which is what lets the paper use very
// small (100 m) cells without storage cost. A cell is identified by its
// ID, and following the paper, all distances "from a grid" are measured
// from the cell's centroid.
package grid

import (
	"fmt"
	"math"

	"xar/internal/geo"
)

// ID identifies one grid cell within a System. IDs pack the (row, col)
// integer coordinates of the cell into a single comparable value so they
// can key maps and sort.
type ID int64

// Invalid is returned for points outside the system's region.
const Invalid ID = -1

const colBits = 24 // up to 16.7M columns; a planet at 100 m needs ~400k

// RC unpacks an ID into row and column.
func (id ID) RC() (row, col int32) {
	return int32(id >> colBits), int32(id & (1<<colBits - 1))
}

func fromRC(row, col int32) ID {
	return ID(int64(row)<<colBits | int64(col))
}

// String renders the ID as "r12c34" for diagnostics.
func (id ID) String() string {
	if id == Invalid {
		return "grid(invalid)"
	}
	r, c := id.RC()
	return fmt.Sprintf("r%dc%d", r, c)
}

// System is an implicit uniform grid over a bounding box. Cells are
// approximately cellSize × cellSize meters: latitude rows use the constant
// meters-per-degree-latitude, and columns use the meters-per-degree-
// longitude at the region's central latitude, so cells are square to
// within the cos(lat) variation across the box (negligible at city scale).
type System struct {
	origin   geo.Point // south-west corner
	cellSize float64   // meters
	dLat     float64   // degrees of latitude per row
	dLng     float64   // degrees of longitude per column
	rows     int32
	cols     int32
}

// NewSystem builds a grid system covering box with cells of cellSize
// meters (the paper uses 100 m). It returns an error for degenerate
// parameters rather than producing a system that silently maps everything
// to Invalid.
func NewSystem(box geo.BBox, cellSize float64) (*System, error) {
	if cellSize <= 0 || math.IsNaN(cellSize) {
		return nil, fmt.Errorf("grid: cell size must be positive, got %v", cellSize)
	}
	if box.MaxLat <= box.MinLat || box.MaxLng <= box.MinLng {
		return nil, fmt.Errorf("grid: degenerate bounding box %+v", box)
	}
	midLat := (box.MinLat + box.MaxLat) / 2
	s := &System{
		origin:   geo.Point{Lat: box.MinLat, Lng: box.MinLng},
		cellSize: cellSize,
		dLat:     cellSize / geo.MetersPerDegreeLat(),
		dLng:     cellSize / geo.MetersPerDegreeLng(midLat),
	}
	s.rows = int32(math.Ceil((box.MaxLat - box.MinLat) / s.dLat))
	s.cols = int32(math.Ceil((box.MaxLng - box.MinLng) / s.dLng))
	if s.rows < 1 {
		s.rows = 1
	}
	if s.cols < 1 {
		s.cols = 1
	}
	if int64(s.cols) >= 1<<colBits {
		return nil, fmt.Errorf("grid: region too wide for cell size %v (%d columns)", cellSize, s.cols)
	}
	return s, nil
}

// Rows and Cols report the grid dimensions.
func (s *System) Rows() int32 { return s.rows }

// Cols reports the number of grid columns.
func (s *System) Cols() int32 { return s.cols }

// NumCells returns the total number of (implicit) cells.
func (s *System) NumCells() int64 { return int64(s.rows) * int64(s.cols) }

// At maps a point to its unique grid cell, or Invalid if the point falls
// outside the covered region. Every in-region point maps to exactly one
// cell (many-to-one, per Definition 1).
func (s *System) At(p geo.Point) ID {
	row := int32(math.Floor((p.Lat - s.origin.Lat) / s.dLat))
	col := int32(math.Floor((p.Lng - s.origin.Lng) / s.dLng))
	if row < 0 || row >= s.rows || col < 0 || col >= s.cols {
		return Invalid
	}
	return fromRC(row, col)
}

// Centroid returns the center point of the cell. Per the paper, all grid
// distances are measured from the centroid.
func (s *System) Centroid(id ID) geo.Point {
	row, col := id.RC()
	return geo.Point{
		Lat: s.origin.Lat + (float64(row)+0.5)*s.dLat,
		Lng: s.origin.Lng + (float64(col)+0.5)*s.dLng,
	}
}

// Contains reports whether id addresses a cell inside this system.
func (s *System) Contains(id ID) bool {
	if id == Invalid {
		return false
	}
	row, col := id.RC()
	return row >= 0 && row < s.rows && col >= 0 && col < s.cols
}

// Cell returns the ID of the cell at row, col, or Invalid outside the
// region.
func (s *System) Cell(row, col int32) ID {
	if row < 0 || row >= s.rows || col < 0 || col >= s.cols {
		return Invalid
	}
	return fromRC(row, col)
}

// Index returns the cell's position in row-major order, row·Cols + col —
// the index of its entry in a table holding one entry per cell — or -1
// if id addresses no cell of the system.
func (s *System) Index(id ID) int {
	if id < 0 {
		return -1
	}
	row, col := int64(id)>>colBits, int64(id&(1<<colBits-1))
	if row >= int64(s.rows) || col >= int64(s.cols) {
		return -1
	}
	return int(row)*int(s.cols) + int(col)
}

// Ring appends to dst the cells at Chebyshev distance exactly k from id
// (the k-th square ring), clipped to the region. Ring(id, 0, dst) appends
// id itself. The T-Share baseline expands rings in increasing k order,
// which visits grids in (approximately) increasing distance.
func (s *System) Ring(id ID, k int32, dst []ID) []ID {
	row, col := id.RC()
	if k == 0 {
		if s.Contains(id) {
			dst = append(dst, id)
		}
		return dst
	}
	add := func(r, c int32) []ID {
		if r < 0 || r >= s.rows || c < 0 || c >= s.cols {
			return dst
		}
		return append(dst, fromRC(r, c))
	}
	for c := col - k; c <= col+k; c++ { // top and bottom edges
		dst = add(row-k, c)
		dst = add(row+k, c)
	}
	for r := row - k + 1; r <= row+k-1; r++ { // left and right edges
		dst = add(r, col-k)
		dst = add(r, col+k)
	}
	return dst
}

// ChebyshevDist returns the Chebyshev (ring) distance between two cells,
// i.e. the number of rings separating them. It approximates driving
// proximity for the grid-based baseline.
func ChebyshevDist(a, b ID) int32 {
	ar, ac := a.RC()
	br, bc := b.RC()
	dr := ar - br
	if dr < 0 {
		dr = -dr
	}
	dc := ac - bc
	if dc < 0 {
		dc = -dc
	}
	if dr > dc {
		return dr
	}
	return dc
}
