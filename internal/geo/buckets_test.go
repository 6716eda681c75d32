package geo

import (
	"math"
	"math/rand"
	"testing"
)

// bucketWorld is a random point set in a city-sized box, every tenth
// point a copy of an earlier one so that nearest searches meet exact ties.
func bucketWorld(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		if i > 0 && i%10 == 0 {
			pts[i] = pts[rng.Intn(i)]
			continue
		}
		pts[i] = Point{Lat: 40.70 + rng.Float64()*0.05, Lng: -74.02 + rng.Float64()*0.06}
	}
	return pts
}

// bucketQueries are points inside box, on its edges and corners, and
// outside it by up to out meters.
func bucketQueries(rng *rand.Rand, box BBox, out float64) []Point {
	lat := func(f float64) float64 { return box.MinLat + f*(box.MaxLat-box.MinLat) }
	lng := func(f float64) float64 { return box.MinLng + f*(box.MaxLng-box.MinLng) }
	qs := []Point{
		{Lat: box.MinLat, Lng: box.MinLng}, {Lat: box.MaxLat, Lng: box.MaxLng},
		{Lat: box.MinLat, Lng: box.MaxLng}, {Lat: box.MaxLat, Lng: box.MinLng},
	}
	wide := box.Pad(out)
	for i := 0; i < 40; i++ {
		f := rng.Float64()
		qs = append(qs,
			Point{Lat: lat(rng.Float64()), Lng: lng(rng.Float64())},
			Point{Lat: box.MinLat, Lng: lng(f)}, Point{Lat: box.MaxLat, Lng: lng(f)},
			Point{Lat: lat(f), Lng: box.MinLng}, Point{Lat: lat(f), Lng: box.MaxLng},
			Point{Lat: wide.MinLat + rng.Float64()*(wide.MaxLat-wide.MinLat), Lng: wide.MinLng + rng.Float64()*(wide.MaxLng-wide.MinLng)},
		)
	}
	return qs
}

// ringNearest is a nearest search over Ring, the walk roadnet.NodeIndex
// makes, with the lowest index winning a tie.
func ringNearest(b *Buckets, pts []Point, p Point) (int32, float64) {
	r0, c0 := b.CellOf(p)
	best, bestD := int32(-1), math.Inf(1)
	for k := 0; k <= max(b.Rows, b.Cols); k++ {
		if best >= 0 && bestD < float64(k-1)*b.Cell {
			break
		}
		b.Ring(r0, c0, k, func(bucket []int32) {
			for _, i := range bucket {
				if d := Haversine(p, pts[i]); d < bestD || d == bestD && i < best {
					best, bestD = i, d
				}
			}
		})
	}
	return best, bestD
}

// TestBucketsAgainstLinearScan: for random point sets, built at once or
// added one by one after construction, and queries inside the box, on
// its edges and outside it, the square Square returns holds every point
// a linear scan finds within the radius — radii below, at and above the
// cell size — and the ring walk finds the linear scan's nearest point,
// lowest index first on ties.
func TestBucketsAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{0, 1, 37, 600} {
		for _, cell := range []float64{100, 250, 500} {
			pts := bucketWorld(rng, n)
			box := BBox{MinLat: 40.70, MinLng: -74.02, MaxLat: 40.75, MaxLng: -73.96}.Pad(cell)
			built := NewBuckets(box, cell, pts)
			added := NewBuckets(box, cell, nil)
			for i, p := range pts {
				added.Add(int32(i), p)
			}
			for _, b := range []*Buckets{built, added} {
				for _, q := range bucketQueries(rng, box, 3*cell) {
					for _, radius := range []float64{0.4 * cell, cell, 3.7 * cell} {
						in := map[int32]bool{}
						r0, r1, c0, c1 := b.Square(q, radius)
						for r := r0; r <= r1; r++ {
							for c := c0; c <= c1; c++ {
								for _, i := range b.Bucket(r, c) {
									in[i] = true
								}
							}
						}
						for i, p := range pts {
							if Haversine(q, p) <= radius && !in[int32(i)] {
								t.Fatalf("n=%d cell=%v: point %d at %.1f m of %v is outside Square(%v m) rows %d…%d cols %d…%d",
									n, cell, i, Haversine(q, p), q, radius, r0, r1, c0, c1)
							}
						}
					}
					want, wantD := int32(-1), math.Inf(1)
					for i, p := range pts {
						if d := Haversine(q, p); d < wantD {
							want, wantD = int32(i), d
						}
					}
					if got, gotD := ringNearest(b, pts, q); got != want || gotD != wantD {
						t.Fatalf("n=%d cell=%v: nearest of %v is %d at %v m, linear scan %d at %v m", n, cell, q, got, gotD, want, wantD)
					}
				}
			}
		}
	}
}

// TestBucketsRingAndClamp: with one point at each cell's centre, Ring
// visits exactly the grid cells at Chebyshev distance k, row by row and
// along a row by column, from cells inside and outside the grid, and RC
// clamps a point outside the box to the nearest edge cell.
func TestBucketsRingAndClamp(t *testing.T) {
	box := BBox{MinLat: 40.70, MinLng: -74.02, MaxLat: 40.71, MaxLng: -74.005}
	b := NewBuckets(box, 200, nil)
	for r := 0; r < b.Rows; r++ {
		for c := 0; c < b.Cols; c++ {
			b.Add(int32(r*b.Cols+c), Point{Lat: box.MinLat + (float64(r)+0.5)*b.dLat, Lng: box.MinLng + (float64(c)+0.5)*b.dLng})
		}
	}
	for _, rc := range [][2]int{{0, 0}, {2, 3}, {b.Rows - 1, b.Cols - 1}, {-2, 4}, {b.Rows + 1, -3}} {
		for k := 0; k <= max(b.Rows, b.Cols)+4; k++ {
			var got []int32
			b.Ring(rc[0], rc[1], k, func(bucket []int32) {
				if len(bucket) != 1 {
					t.Fatalf("cell holds %v, want one point", bucket)
				}
				got = append(got, bucket[0])
			})
			var want []int32
			for r := 0; r < b.Rows; r++ {
				for c := 0; c < b.Cols; c++ {
					if max(abs(r-rc[0]), abs(c-rc[1])) == k {
						want = append(want, int32(r*b.Cols+c))
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("Ring(%d, %d, %d) visits %v, want %v", rc[0], rc[1], k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Ring(%d, %d, %d) visits %v, want %v", rc[0], rc[1], k, got, want)
				}
			}
		}
	}
	far := box.Pad(5000)
	for _, tc := range []struct {
		p    Point
		r, c int
	}{
		{Point{Lat: far.MinLat, Lng: far.MinLng}, 0, 0},
		{Point{Lat: far.MaxLat, Lng: far.MaxLng}, b.Rows - 1, b.Cols - 1},
		{Point{Lat: far.MinLat, Lng: box.MinLng + 1.5*b.dLng}, 0, 1},
		{Point{Lat: box.MinLat + 2.5*b.dLat, Lng: far.MaxLng}, 2, b.Cols - 1},
	} {
		if r, c := b.RC(tc.p); r != tc.r || c != tc.c {
			t.Errorf("RC(%v) = (%d, %d), want (%d, %d)", tc.p, r, c, tc.r, tc.c)
		}
	}
}

func abs(x int) int { return max(x, -x) }
