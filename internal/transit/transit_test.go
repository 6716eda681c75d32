package transit

import (
	"math"
	"testing"

	"xar/internal/geo"
	"xar/internal/roadnet"
)

func testCity(t testing.TB) *roadnet.City {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(30, 16, 42))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func testNetwork(t testing.TB) *Network {
	t.Helper()
	n, err := Generate(testCity(t))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func twoStops(t *testing.T) ([]Stop, []StopID) {
	t.Helper()
	p := geo.Point{Lat: 40.7, Lng: -74}
	stops := []Stop{
		{ID: 0, Name: "A", Point: p},
		{ID: 1, Name: "B", Point: geo.Destination(p, 0, 700)},
		{ID: 2, Name: "C", Point: geo.Destination(p, 0, 1400)},
	}
	return stops, []StopID{0, 1, 2}
}

func TestNewRouteDerivesTimes(t *testing.T) {
	stops, ids := twoStops(t)
	r, err := NewRoute(0, "L", ModeSubway, ids, stops, 10, 300, 0, 86400, 20)
	if err != nil {
		t.Fatal(err)
	}
	// 700 m at 10 m/s + 20 s dwell = 90 s per leg.
	if math.Abs(r.LegTime(0)-90) > 1 || math.Abs(r.LegTime(1)-90) > 1 {
		t.Fatalf("leg times %v %v, want ~90", r.LegTime(0), r.LegTime(1))
	}
	if math.Abs(r.Offset(2)-180) > 2 {
		t.Fatalf("cumulative offset %v, want ~180", r.Offset(2))
	}
	if _, err := NewRoute(0, "L", ModeSubway, ids, stops, 0, 300, 0, 86400, 20); err == nil {
		t.Fatal("zero speed must be rejected")
	}
}

func TestNextDeparture(t *testing.T) {
	stops, ids := twoStops(t)
	r, err := NewRoute(0, "L", ModeSubway, ids, stops, 10, 300, 1000, 2000, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Before service: first departure.
	dep, ok := r.NextDeparture(0, 0)
	if !ok || dep != 1000 {
		t.Fatalf("dep = %v ok=%v, want 1000", dep, ok)
	}
	// Mid-service: the next multiple of the headway.
	dep, ok = r.NextDeparture(0, 1001)
	if !ok || dep != 1300 {
		t.Fatalf("dep = %v, want 1300", dep)
	}
	// Exactly at a departure.
	dep, ok = r.NextDeparture(0, 1300)
	if !ok || dep != 1300 {
		t.Fatalf("dep = %v, want 1300 (inclusive)", dep)
	}
	// After service end.
	if _, ok = r.NextDeparture(0, 2300+1); ok {
		t.Fatal("departure after service end")
	}
	// At a downstream stop the offset applies.
	dep, ok = r.NextDeparture(1, 0)
	if !ok || math.Abs(dep-(1000+r.Offset(1))) > 1e-9 {
		t.Fatalf("downstream dep = %v, want %v", dep, 1000+r.Offset(1))
	}
	// Last stop has no departures.
	if _, ok = r.NextDeparture(2, 0); ok {
		t.Fatal("final stop must have no departures")
	}
	if _, ok = r.NextDeparture(-1, 0); ok {
		t.Fatal("negative index must have no departures")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	stops, ids := twoStops(t)
	good, err := NewRoute(0, "L", ModeSubway, ids, stops, 10, 300, 0, 86400, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetwork(stops, []Route{good}); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Headway = 0
	if _, err := NewNetwork(stops, []Route{bad}); err == nil {
		t.Fatal("zero headway must be rejected")
	}
	bad = good
	bad.Stops = []StopID{0, 99}
	if _, err := NewNetwork(stops, []Route{bad}); err == nil {
		t.Fatal("unknown stop must be rejected")
	}
	bad = good
	bad.Last = -1
	if _, err := NewNetwork(stops, []Route{bad}); err == nil {
		t.Fatal("inverted service window must be rejected")
	}
}

func TestGenerateNetworkShape(t *testing.T) {
	n := testNetwork(t)
	if len(n.Stops) < 20 {
		t.Fatalf("only %d stops generated", len(n.Stops))
	}
	subways, buses := 0, 0
	for _, r := range n.Routes {
		switch r.Mode {
		case ModeSubway:
			subways++
		case ModeBus:
			buses++
		}
		if len(r.Stops) < 2 {
			t.Fatalf("route %q has %d stops", r.Name, len(r.Stops))
		}
	}
	if subways == 0 || buses == 0 {
		t.Fatalf("subways=%d buses=%d; want both", subways, buses)
	}
	// Directions come in pairs.
	if len(n.Routes)%2 != 0 {
		t.Fatal("routes must come in direction pairs")
	}
}

func TestGenerateValidation(t *testing.T) {
	// A 2×2 lattice is 110 m by 270 m: shorter than one stop spacing in
	// both directions, so no line gets two stops.
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(city); err == nil {
		t.Fatal("a city too small for any line must be rejected")
	}
}

func TestRoutesAtConsistency(t *testing.T) {
	n := testNetwork(t)
	for s := range n.Stops {
		for _, rs := range n.RoutesAt(StopID(s)) {
			r := n.RouteOf(rs)
			if r.Stops[rs.Idx] != StopID(s) {
				t.Fatalf("stop %d: occurrence points at %d", s, r.Stops[rs.Idx])
			}
		}
	}
}

func TestStopsNear(t *testing.T) {
	n := testNetwork(t)
	center := n.Stops[len(n.Stops)/2].Point
	ids, dists := n.StopsNear(center, 800, nil, nil)
	if len(ids) == 0 {
		t.Fatal("no stops within 800 m of a stop")
	}
	if len(ids) != len(dists) {
		t.Fatal("ids/dists length mismatch")
	}
	for i, id := range ids {
		d := geo.Haversine(center, n.Stops[id].Point)
		if math.Abs(d-dists[i]) > 1e-6 {
			t.Fatalf("reported distance %v, actual %v", dists[i], d)
		}
		if d > 800 {
			t.Fatalf("stop at %.1f m > 800", d)
		}
	}
	// Brute-force count must agree.
	want := 0
	for _, s := range n.Stops {
		if geo.Haversine(center, s.Point) <= 800 {
			want++
		}
	}
	if len(ids) != want {
		t.Fatalf("StopsNear found %d, brute force %d", len(ids), want)
	}
}

func TestModeString(t *testing.T) {
	if ModeSubway.String() != "subway" || ModeBus.String() != "bus" {
		t.Fatal("mode strings")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatal("unknown mode string")
	}
}
