// Package geo provides the geographic primitives that every other layer of
// the XAR system builds on: WGS-84 points, great-circle (haversine)
// distances, destination projection, and bounding boxes.
//
// All distances are expressed in meters and all angles in degrees unless a
// name says otherwise. The package is deliberately dependency-free; the
// road network, grid system and discretization layers all consume it.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used for all great-circle
// computations. The exact constant matters less than using the same one
// everywhere: grid geometry, walkable-distance thresholds and detour
// accounting must agree with each other.
const EarthRadiusMeters = 6371000.0

// Point is a WGS-84 coordinate. Lat is latitude in degrees in [-90, 90],
// Lng is longitude in degrees in [-180, 180].
type Point struct {
	Lat float64
	Lng float64
}

// String renders the point as "lat,lng" with six decimal places (about
// 0.1 m of precision), the conventional interchange format.
func (p Point) String() string {
	return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lng)
}

// Valid reports whether the point lies in the legal WGS-84 ranges and has
// finite coordinates.
func (p Point) Valid() bool {
	if math.IsNaN(p.Lat) || math.IsNaN(p.Lng) || math.IsInf(p.Lat, 0) || math.IsInf(p.Lng, 0) {
		return false
	}
	return p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Haversine returns the great-circle distance between a and b in meters.
// It is the walking-distance metric of the XAR system and the admissible
// heuristic of the road-network A* search.
func Haversine(a, b Point) float64 {
	return HaversineCos(a, b, CosLat(a), CosLat(b))
}

// CosLat returns the cosine of p's latitude, the per-point factor of
// Haversine. A caller measuring between fixed point sets computes it once
// per point and passes it to HaversineCos.
func CosLat(p Point) float64 { return math.Cos(radians(p.Lat)) }

// HaversineCos is Haversine(a, b) given cosA = CosLat(a) and
// cosB = CosLat(b), without computing the two cosines again.
func HaversineCos(a, b Point, cosA, cosB float64) float64 {
	dLat := radians(b.Lat - a.Lat)
	dLng := radians(b.Lng - a.Lng)

	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLng / 2)
	h := s1*s1 + cosA*cosB*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// FlatBound turns away points that are certainly farther than a radius
// from one point p, for four multiplications instead of a haversine. With
// x, y half the latitude and longitude differences, the haversine distance
// is 2R·asin √(sin²x + cos φ₁ cos φ₂ sin²y) ≥ 2R·√(x² + cos²φ y²)·(1 − max(x,y)²/6)
// for φ the latitude farthest from the equator among p's and the box's
// edges. For coordinate differences under flatMaxDeg degrees,
// sin x ≥ x·(1 − x²/6) costs the bound under 1e-4 of its square, and
// rounding far less; flatSlack shaves the bound by more than both. A
// point the bound does not exclude needs the haversine, so a scan that
// skips only the points Beyond excludes finds exactly what the plain scan
// finds, with the same distances.
type FlatBound struct {
	p          Point
	kLat, kLng float64 // squared meters per degree, shaved by flatSlack
}

const (
	flatSlack  = 2e-4
	flatMaxDeg = 2.0
)

// NewFlatBound prepares the bound for distances from p to points whose
// latitudes lie within box's.
func NewFlatBound(p Point, box BBox) FlatBound {
	farLat := math.Max(math.Abs(p.Lat), math.Max(math.Abs(box.MinLat), math.Abs(box.MaxLat)))
	mLat, mLng := MetersPerDegreeLat(), MetersPerDegreeLng(farLat)
	return FlatBound{p: p, kLat: mLat * mLat * (1 - flatSlack), kLng: mLng * mLng * (1 - flatSlack)}
}

// Beyond reports whether the bound alone proves Haversine(p, q) > r.
// False means "compute the haversine", not "within r".
func (f FlatBound) Beyond(q Point, r float64) bool {
	dLat, dLng := q.Lat-f.p.Lat, q.Lng-f.p.Lng
	return math.Abs(dLat) < flatMaxDeg && math.Abs(dLng) < flatMaxDeg && dLat*dLat*f.kLat+dLng*dLng*f.kLng > r*r
}

// Destination returns the point reached by travelling distMeters from p
// along the given initial bearing (degrees, clockwise from north). It is
// used by the synthetic city generator to lay out road geometry.
func Destination(p Point, bearingDeg, distMeters float64) Point {
	lat1 := radians(p.Lat)
	lng1 := radians(p.Lng)
	brng := radians(bearingDeg)
	d := distMeters / EarthRadiusMeters

	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(brng))
	lng2 := lng1 + math.Atan2(
		math.Sin(brng)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2),
	)
	// Normalize longitude to [-180, 180).
	lng2 = math.Mod(lng2+3*math.Pi, 2*math.Pi) - math.Pi
	return Point{Lat: degrees(lat2), Lng: degrees(lng2)}
}

// Midpoint returns the great-circle midpoint of a and b. For the city
// scales XAR works at (tens of km), the planar midpoint would do, but the
// exact formula costs little.
func Midpoint(a, b Point) Point {
	lat1 := radians(a.Lat)
	lng1 := radians(a.Lng)
	lat2 := radians(b.Lat)
	dLng := radians(b.Lng - a.Lng)

	bx := math.Cos(lat2) * math.Cos(dLng)
	by := math.Cos(lat2) * math.Sin(dLng)
	lat3 := math.Atan2(
		math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by),
	)
	lng3 := lng1 + math.Atan2(by, math.Cos(lat1)+bx)
	lng3 = math.Mod(lng3+3*math.Pi, 2*math.Pi) - math.Pi
	return Point{Lat: degrees(lat3), Lng: degrees(lng3)}
}

// MetersPerDegreeLat is the (latitude-independent, to first order) length
// of one degree of latitude.
func MetersPerDegreeLat() float64 {
	return 2 * math.Pi * EarthRadiusMeters / 360
}

// MetersPerDegreeLng returns the length of one degree of longitude at the
// given latitude. It shrinks toward the poles; grid geometry uses it to
// keep cells approximately square in meters.
func MetersPerDegreeLng(lat float64) float64 {
	return MetersPerDegreeLat() * math.Cos(radians(lat))
}

// BBox is an axis-aligned bounding box in degree space. MinLat <= MaxLat
// and MinLng <= MaxLng; boxes never wrap the antimeridian (city-scale use).
type BBox struct {
	MinLat, MinLng, MaxLat, MaxLng float64
}

// NewBBox returns the smallest box containing all the given points.
// It panics if pts is empty: an empty bounding box has no meaning for the
// callers (region discretization over a known city).
func NewBBox(pts ...Point) BBox {
	if len(pts) == 0 {
		panic("geo: NewBBox requires at least one point")
	}
	b := BBox{
		MinLat: pts[0].Lat, MaxLat: pts[0].Lat,
		MinLng: pts[0].Lng, MaxLng: pts[0].Lng,
	}
	for _, p := range pts[1:] {
		b = b.Extend(p)
	}
	return b
}

// Extend returns the box grown to contain p.
func (b BBox) Extend(p Point) BBox {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lng < b.MinLng {
		b.MinLng = p.Lng
	}
	if p.Lng > b.MaxLng {
		b.MaxLng = p.Lng
	}
	return b
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lng >= b.MinLng && p.Lng <= b.MaxLng
}

// Center returns the box's center point.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lng: (b.MinLng + b.MaxLng) / 2}
}

// Pad returns the box grown by meters on every side.
func (b BBox) Pad(meters float64) BBox {
	dLat := meters / MetersPerDegreeLat()
	lat := math.Max(math.Abs(b.MinLat), math.Abs(b.MaxLat))
	dLng := meters / MetersPerDegreeLng(lat)
	return BBox{
		MinLat: b.MinLat - dLat,
		MaxLat: b.MaxLat + dLat,
		MinLng: b.MinLng - dLng,
		MaxLng: b.MaxLng + dLng,
	}
}

// WidthMeters returns the east–west extent measured at the box's central
// latitude.
func (b BBox) WidthMeters() float64 {
	return (b.MaxLng - b.MinLng) * MetersPerDegreeLng((b.MinLat+b.MaxLat)/2)
}

// HeightMeters returns the north–south extent.
func (b BBox) HeightMeters() float64 {
	return (b.MaxLat - b.MinLat) * MetersPerDegreeLat()
}

// PathLength returns the summed haversine length of the polyline through
// pts, in meters. Zero or one point yields 0.
func PathLength(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += Haversine(pts[i-1], pts[i])
	}
	return total
}
