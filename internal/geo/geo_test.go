package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Two NYC reference points with a well-known distance: Times Square and
// Union Square are roughly 3.1 km apart as the crow flies.
var (
	timesSquare = Point{Lat: 40.7580, Lng: -73.9855}
	unionSquare = Point{Lat: 40.7359, Lng: -73.9911}
)

func TestHaversineKnownDistance(t *testing.T) {
	d := Haversine(timesSquare, unionSquare)
	if d < 2300 || d > 2700 {
		t.Fatalf("Times Square–Union Square distance = %.0f m, want ~2500 m", d)
	}
}

func TestHaversineZero(t *testing.T) {
	if d := Haversine(timesSquare, timesSquare); d != 0 {
		t.Fatalf("distance of a point to itself = %v, want 0", d)
	}
}

func TestHaversineSmallScaleMatchesPlanar(t *testing.T) {
	// At ~100 m scales the haversine distance must agree with the planar
	// approximation used by the grid system to well under a meter.
	a := Point{Lat: 40.75, Lng: -73.98}
	b := Point{Lat: 40.75 + 100/MetersPerDegreeLat(), Lng: -73.98}
	d := Haversine(a, b)
	if math.Abs(d-100) > 0.5 {
		t.Fatalf("100 m north displacement measured as %.3f m", d)
	}
	c := Point{Lat: 40.75, Lng: -73.98 + 100/MetersPerDegreeLng(40.75)}
	d = Haversine(a, c)
	if math.Abs(d-100) > 0.5 {
		t.Fatalf("100 m east displacement measured as %.3f m", d)
	}
}

// haversineRef is the formula with both cosines inline, as Haversine was
// written before HaversineCos took them as arguments.
func haversineRef(a, b Point) float64 {
	lat1 := radians(a.Lat)
	lat2 := radians(b.Lat)
	dLat := radians(b.Lat - a.Lat)
	dLng := radians(b.Lng - a.Lng)
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLng / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Haversine and HaversineCos with precomputed cosines return the inline
// formula's bits, on city-scale pairs and on far and antipodal ones where
// h clamps to 1: every distance and golden hash built on them holds.
func TestHaversineCosBitEqual(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	check := func(a, b Point) {
		t.Helper()
		want := haversineRef(a, b)
		cosA, cosB := CosLat(a), CosLat(b)
		if got := Haversine(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Haversine(%v, %v) = %v, inline formula %v", a, b, got, want)
		}
		if got := HaversineCos(a, b, cosA, cosB); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("HaversineCos(%v, %v) = %v, inline formula %v", a, b, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		check(nycPoint(r), nycPoint(r))
		check(Point{Lat: r.Float64()*180 - 90, Lng: r.Float64()*360 - 180},
			Point{Lat: r.Float64()*180 - 90, Lng: r.Float64()*360 - 180})
	}
	check(Point{Lat: 0, Lng: 0}, Point{Lat: 0, Lng: 180})
	check(timesSquare, timesSquare)
}

func nycPoint(r *rand.Rand) Point {
	return Point{
		Lat: 40.55 + r.Float64()*0.4,
		Lng: -74.15 + r.Float64()*0.4,
	}
}

func TestHaversineMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b, c := nycPoint(r), nycPoint(r), nycPoint(r)
		dab := Haversine(a, b)
		dba := Haversine(b, a)
		if math.Abs(dab-dba) > 1e-6 {
			t.Fatalf("symmetry violated: d(a,b)=%v d(b,a)=%v", dab, dba)
		}
		if dab < 0 {
			t.Fatalf("negative distance %v", dab)
		}
		dac := Haversine(a, c)
		dcb := Haversine(c, b)
		if dab > dac+dcb+1e-6 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", dab, dac, dcb)
		}
	}
}

// TestFlatBoundNeverExceedsHaversine: whenever Beyond turns a point away
// at radius r, the haversine is above r; and at r 1 % under the
// haversine the bound turns away most city-scale pairs (it is tight).
func TestFlatBoundNeverExceedsHaversine(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	box := NewBBox(Point{Lat: 40.55, Lng: -74.15}, Point{Lat: 40.95, Lng: -73.75}).Pad(500)
	tight := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		p, q := nycPoint(r), nycPoint(r)
		if i%2 == 0 { // half the pairs within a few hundred meters
			q = Destination(p, r.Float64()*360, r.Float64()*500)
		}
		d := Haversine(p, q)
		f := NewFlatBound(p, box)
		for _, radius := range []float64{0, d / 2, d * (1 - 1e-3), d, d * (1 + 1e-9), 2 * d} {
			if f.Beyond(q, radius) && d <= radius {
				t.Fatalf("Beyond(%v, %v) from %v, but haversine %v", q, radius, p, d)
			}
		}
		if f.Beyond(q, d*0.99) {
			tight++
		}
	}
	if tight < trials*99/100 {
		t.Fatalf("bound turned away %d of %d pairs at 0.99×distance, want ≥ 99%%", tight, trials)
	}
}

func TestDestinationInvertsHaversine(t *testing.T) {
	// quick.Check: Destination(p, bearing, d) must be d away from p and at
	// roughly the requested bearing for any city-scale d.
	f := func(latSeed, lngSeed, brngSeed, distSeed uint16) bool {
		p := Point{
			Lat: 40.55 + float64(latSeed)/65535*0.4,
			Lng: -74.15 + float64(lngSeed)/65535*0.4,
		}
		brng := float64(brngSeed) / 65535 * 360
		dist := 1 + float64(distSeed)/65535*20000 // 1 m .. 20 km
		q := Destination(p, brng, dist)
		back := Haversine(p, q)
		return math.Abs(back-dist) < 0.01*dist+0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBearingCardinal pins Destination's bearing convention: degrees
// clockwise from north.
func TestBearingCardinal(t *testing.T) {
	p := Point{Lat: 40.75, Lng: -73.98}
	const d = 1000.0
	cases := []struct {
		name       string
		bearing    float64
		dLat, dLng float64 // expected displacement in meters
	}{
		{"north", 0, d, 0},
		{"east", 90, 0, d},
		{"south", 180, -d, 0},
		{"west", 270, 0, -d},
	}
	for _, tc := range cases {
		q := Destination(p, tc.bearing, d)
		dLat := (q.Lat - p.Lat) * MetersPerDegreeLat()
		dLng := (q.Lng - p.Lng) * MetersPerDegreeLng(p.Lat)
		if math.Abs(dLat-tc.dLat) > 1 || math.Abs(dLng-tc.dLng) > 1 {
			t.Errorf("%s: moved %.2f m north, %.2f m east; want %.0f, %.0f", tc.name, dLat, dLng, tc.dLat, tc.dLng)
		}
	}
}

func TestMidpoint(t *testing.T) {
	m := Midpoint(timesSquare, unionSquare)
	da := Haversine(timesSquare, m)
	db := Haversine(unionSquare, m)
	if math.Abs(da-db) > 1 {
		t.Fatalf("midpoint not equidistant: %.2f vs %.2f", da, db)
	}
	total := Haversine(timesSquare, unionSquare)
	if math.Abs(da+db-total) > 1 {
		t.Fatalf("midpoint off the great circle: %.2f + %.2f vs %.2f", da, db, total)
	}
}

func TestPointValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
		{Point{0, math.Inf(1)}, false},
	}
	for _, tc := range cases {
		if got := tc.p.Valid(); got != tc.want {
			t.Errorf("Valid(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestBBox(t *testing.T) {
	b := NewBBox(timesSquare, unionSquare)
	if !b.Contains(timesSquare) || !b.Contains(unionSquare) {
		t.Fatal("bbox must contain its defining points")
	}
	if !b.Contains(Midpoint(timesSquare, unionSquare)) {
		t.Fatal("bbox must contain the midpoint")
	}
	outside := Point{Lat: 40.80, Lng: -73.98}
	if b.Contains(outside) {
		t.Fatal("bbox should not contain a point north of both corners")
	}
	padded := b.Pad(10000)
	if !padded.Contains(outside) {
		t.Fatal("10 km padded bbox should contain a point ~4.5 km away")
	}
	if padded.WidthMeters() <= b.WidthMeters() || padded.HeightMeters() <= b.HeightMeters() {
		t.Fatal("padding must grow the box")
	}
}

func TestNewBBoxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBBox() with no points must panic")
		}
	}()
	NewBBox()
}

func TestBBoxCenter(t *testing.T) {
	b := NewBBox(Point{40, -74}, Point{41, -73})
	c := b.Center()
	if c.Lat != 40.5 || c.Lng != -73.5 {
		t.Fatalf("center = %v, want 40.5,-73.5", c)
	}
}

func TestPathLength(t *testing.T) {
	if PathLength(nil) != 0 {
		t.Fatal("empty path must have length 0")
	}
	if PathLength([]Point{timesSquare}) != 0 {
		t.Fatal("single-point path must have length 0")
	}
	m := Midpoint(timesSquare, unionSquare)
	via := PathLength([]Point{timesSquare, m, unionSquare})
	direct := Haversine(timesSquare, unionSquare)
	if math.Abs(via-direct) > 1 {
		t.Fatalf("path through the midpoint = %.2f, direct = %.2f", via, direct)
	}
}

func TestMetersPerDegree(t *testing.T) {
	if mpd := MetersPerDegreeLat(); math.Abs(mpd-111194.9) > 10 {
		t.Fatalf("meters per degree latitude = %.1f, want ~111195", mpd)
	}
	// Longitude degrees shrink with latitude.
	if MetersPerDegreeLng(60) >= MetersPerDegreeLng(0) {
		t.Fatal("longitude degree length must shrink toward the poles")
	}
	if math.Abs(MetersPerDegreeLng(60)-MetersPerDegreeLat()*0.5) > 10 {
		t.Fatal("cos(60°) = 0.5 scaling violated")
	}
}
