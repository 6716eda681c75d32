package geo

// Buckets is a uniform bucket index over a point set: a box cut into
// cells of about Cell meters on a side (the longitude step taken at the
// box's mid-latitude), each cell holding the int32 indices of the points
// in it. It applies no comparison of its own. A caller walks the cells a
// query covers — Square for a radius, Ring for a nearest search — and
// judges the points it finds there itself.
type Buckets struct {
	Box        BBox
	Cell       float64 // cell edge, meters
	dLat, dLng float64 // cell edge, degrees
	Rows, Cols int
	cells      [][]int32
}

// NewBuckets builds the index over box with cells of cell meters and
// adds pts, the i-th under index i. The grid reaches a cell or two past
// box's north and east edges.
func NewBuckets(box BBox, cell float64, pts []Point) *Buckets {
	b := &Buckets{
		Box:  box,
		Cell: cell,
		dLat: cell / MetersPerDegreeLat(),
		dLng: cell / MetersPerDegreeLng((box.MinLat+box.MaxLat)/2),
	}
	b.Rows = int((box.MaxLat-box.MinLat)/b.dLat) + 2
	b.Cols = int((box.MaxLng-box.MinLng)/b.dLng) + 2
	b.cells = make([][]int32, b.Rows*b.Cols)
	for i, p := range pts {
		b.Add(int32(i), p)
	}
	return b
}

// Add puts index i in the cell of p (clamped, see RC).
func (b *Buckets) Add(i int32, p Point) {
	r, c := b.RC(p)
	k := r*b.Cols + c
	b.cells[k] = append(b.cells[k], i)
}

// Bucket returns the indices in cell (r, c), in the order added.
func (b *Buckets) Bucket(r, c int) []int32 { return b.cells[r*b.Cols+c] }

// CellOf returns p's row and column, which lie outside the grid when p
// lies outside it.
func (b *Buckets) CellOf(p Point) (r, c int) {
	return int((p.Lat - b.Box.MinLat) / b.dLat), int((p.Lng - b.Box.MinLng) / b.dLng)
}

// RC returns the cell of p, clamped to the grid: a point outside it
// gets the nearest edge cell.
func (b *Buckets) RC(p Point) (r, c int) {
	r, c = b.CellOf(p)
	return min(max(r, 0), b.Rows-1), min(max(c, 0), b.Cols-1)
}

// Square returns the rows r0…r1 and columns c0…c1 (inclusive) of the
// cells that cover the circle of radius meters around p: p's clamped
// cell and radius/Cell + 1 cells on each side, clipped to the grid. A
// caller scans them row by row.
func (b *Buckets) Square(p Point, radius float64) (r0, r1, c0, c1 int) {
	span := int(radius/b.Cell) + 1
	r, c := b.RC(p)
	return max(r-span, 0), min(r+span, b.Rows-1), max(c-span, 0), min(c+span, b.Cols-1)
}

// Ring calls visit with the bucket of every grid cell at Chebyshev
// distance exactly k from cell (r, c), which may lie outside the grid:
// row by row, and along a row by column. Ring(r, c, 0, visit) visits
// (r, c) alone. A point in a ring-k cell lies (k−1)·Cell or more from
// any point of cell (r, c), up to the longitude step's change with
// latitude across the box.
func (b *Buckets) Ring(r, c, k int, visit func(bucket []int32)) {
	for i := max(r-k, 0); i <= min(r+k, b.Rows-1); i++ {
		step := 1
		if k > 0 && i != r-k && i != r+k {
			step = 2 * k // between the top and bottom rows, the two side cells
		}
		for j := c - k; j <= c+k; j += step {
			if j >= 0 && j < b.Cols {
				visit(b.cells[i*b.Cols+j])
			}
		}
	}
}
