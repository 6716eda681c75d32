package grid

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"xar/internal/geo"
)

func nycBox() geo.BBox {
	return geo.BBox{MinLat: 40.60, MinLng: -74.05, MaxLat: 40.90, MaxLng: -73.85}
}

func mustSystem(t *testing.T, cell float64) *System {
	t.Helper()
	s, err := NewSystem(nycBox(), cell)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemRejectsBadInput(t *testing.T) {
	if _, err := NewSystem(nycBox(), 0); err == nil {
		t.Fatal("cell size 0 must be rejected")
	}
	if _, err := NewSystem(nycBox(), -5); err == nil {
		t.Fatal("negative cell size must be rejected")
	}
	bad := geo.BBox{MinLat: 41, MinLng: -74, MaxLat: 40, MaxLng: -73}
	if _, err := NewSystem(bad, 100); err == nil {
		t.Fatal("inverted bbox must be rejected")
	}
}

func TestCellCountsMatchRegionSize(t *testing.T) {
	s := mustSystem(t, 100)
	// The box is ~0.30° of latitude (~33 km) and 0.20° of longitude
	// (~16.9 km at 40.75°): expect roughly 334 rows and 169 cols.
	if s.Rows() < 300 || s.Rows() > 360 {
		t.Fatalf("rows = %d, want ~334", s.Rows())
	}
	if s.Cols() < 150 || s.Cols() > 185 {
		t.Fatalf("cols = %d, want ~169", s.Cols())
	}
}

func TestAtMapsEveryInteriorPointToValidCell(t *testing.T) {
	s := mustSystem(t, 100)
	f := func(a, b uint16) bool {
		p := geo.Point{
			Lat: 40.60 + float64(a)/65535*0.30,
			Lng: -74.05 + float64(b)/65535*0.20,
		}
		id := s.At(p)
		if !s.Contains(id) {
			return false
		}
		// The centroid must be within half a cell diagonal (~71 m) of p,
		// with slack for the cos-latitude approximation.
		return geo.Haversine(p, s.Centroid(id)) <= 75
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAtOutsideRegion(t *testing.T) {
	s := mustSystem(t, 100)
	outside := []geo.Point{
		{Lat: 40.50, Lng: -74.00},
		{Lat: 41.00, Lng: -74.00},
		{Lat: 40.70, Lng: -74.20},
		{Lat: 40.70, Lng: -73.70},
	}
	for _, p := range outside {
		if id := s.At(p); id != Invalid {
			t.Errorf("point %v outside region mapped to %v", p, id)
		}
	}
	if s.Contains(Invalid) {
		t.Fatal("Contains(Invalid) must be false")
	}
}

func TestCentroidRoundTrip(t *testing.T) {
	s := mustSystem(t, 100)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		p := geo.Point{
			Lat: 40.60 + r.Float64()*0.29,
			Lng: -74.05 + r.Float64()*0.19,
		}
		id := s.At(p)
		if got := s.At(s.Centroid(id)); got != id {
			t.Fatalf("At(Centroid(%v)) = %v", id, got)
		}
	}
}

// Cell and Index are inverse on the region: row-major positions 0 … n−1,
// each once, and -1 / Invalid for everything outside it — including IDs
// whose row overflows int32, which Contains would fold back in.
func TestCellIndexRowMajor(t *testing.T) {
	s := mustSystem(t, 100)
	next := 0
	for r := int32(0); r < s.Rows(); r++ {
		for c := int32(0); c < s.Cols(); c++ {
			id := s.Cell(r, c)
			if id != fromRC(r, c) || s.Index(id) != next {
				t.Fatalf("Cell(%d, %d) = %v at index %d, want %v at %d", r, c, id, s.Index(id), fromRC(r, c), next)
			}
			next++
		}
	}
	if next != int(s.Rows())*int(s.Cols()) {
		t.Fatalf("indexed %d of %d cells", next, s.Rows()*s.Cols())
	}
	for _, rc := range [][2]int32{{-1, 0}, {0, -1}, {s.Rows(), 0}, {0, s.Cols()}} {
		if id := s.Cell(rc[0], rc[1]); id != Invalid {
			t.Errorf("Cell(%d, %d) = %v, want Invalid", rc[0], rc[1], id)
		}
	}
	for _, id := range []ID{Invalid, -2, fromRC(s.Rows(), 0), fromRC(0, s.Cols()), ID(1) << 56, ID(1)<<62 | 5} {
		if i := s.Index(id); i != -1 {
			t.Errorf("Index(%d) = %d, want -1", int64(id), i)
		}
	}
}

func TestDeterministicMapping(t *testing.T) {
	s1 := mustSystem(t, 100)
	s2 := mustSystem(t, 100)
	p := geo.Point{Lat: 40.7580, Lng: -73.9855}
	if s1.At(p) != s2.At(p) {
		t.Fatal("identical systems must map identically")
	}
}

func TestRing(t *testing.T) {
	s := mustSystem(t, 100)
	center := s.At(geo.Point{Lat: 40.75, Lng: -73.95})

	if r0 := s.Ring(center, 0, nil); len(r0) != 1 || r0[0] != center {
		t.Fatalf("ring 0 = %v, want [center]", r0)
	}
	for k := int32(1); k <= 4; k++ {
		ring := s.Ring(center, k, nil)
		want := int(8 * k)
		if len(ring) != want {
			t.Fatalf("ring %d has %d cells, want %d", k, len(ring), want)
		}
		for _, id := range ring {
			if ChebyshevDist(center, id) != k {
				t.Fatalf("ring %d contains cell at distance %d", k, ChebyshevDist(center, id))
			}
		}
		// No duplicates.
		sorted := append([]ID(nil), ring...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				t.Fatalf("ring %d contains duplicate %v", k, sorted[i])
			}
		}
	}
}

func TestRingClipsAtBoundary(t *testing.T) {
	s := mustSystem(t, 100)
	corner := fromRC(0, 0)
	ring := s.Ring(corner, 1, nil)
	if len(ring) != 3 {
		t.Fatalf("corner ring 1 has %d cells, want 3", len(ring))
	}
}

func TestChebyshevDist(t *testing.T) {
	a := fromRC(10, 10)
	cases := []struct {
		b    ID
		want int32
	}{
		{fromRC(10, 10), 0},
		{fromRC(10, 11), 1},
		{fromRC(11, 11), 1},
		{fromRC(13, 10), 3},
		{fromRC(7, 14), 4},
	}
	for _, tc := range cases {
		if got := ChebyshevDist(a, tc.b); got != tc.want {
			t.Errorf("ChebyshevDist(%v,%v) = %d, want %d", a, tc.b, got, tc.want)
		}
	}
}

func TestIDString(t *testing.T) {
	if s := fromRC(3, 7).String(); s != "r3c7" {
		t.Fatalf("String() = %q", s)
	}
	if s := Invalid.String(); s != "grid(invalid)" {
		t.Fatalf("Invalid.String() = %q", s)
	}
}

// ChebyshevDist returns the Chebyshev (ring) distance between two cells,
// i.e. the number of rings separating them: TestRing's oracle.
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
