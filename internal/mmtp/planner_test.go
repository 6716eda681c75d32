package mmtp

import (
	"math"
	"math/rand"
	"testing"

	"xar/internal/geo"
	"xar/internal/roadnet"
	"xar/internal/transit"
)

func testWorld(t testing.TB) (*roadnet.City, *transit.Network, *Planner) {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(30, 16, 42))
	if err != nil {
		t.Fatal(err)
	}
	net, err := transit.Generate(city)
	if err != nil {
		t.Fatal(err)
	}
	return city, net, NewPlanner(net)
}

func TestPlanDirectWalkShortTrip(t *testing.T) {
	city, _, p := testWorld(t)
	src := city.Graph.BBox().Center()
	dst := geo.Destination(src, 90, 400)
	it, err := p.Plan(src, dst, 8*3600)
	if err != nil {
		t.Fatal(err)
	}
	if it == nil {
		t.Fatal("no plan for a 400 m trip")
	}
	if len(it.Legs) != 1 || it.Legs[0].Mode != LegWalk {
		t.Fatalf("400 m trip should be a single walk, got %d legs", len(it.Legs))
	}
	wantT := 400 / 1.3
	if math.Abs(it.TravelTime()-wantT) > 30 {
		t.Fatalf("walk time %v, want ~%v", it.TravelTime(), wantT)
	}
}

func TestPlanLongTripUsesTransit(t *testing.T) {
	city, _, p := testWorld(t)
	box := city.Graph.BBox()
	src := geo.Point{Lat: box.MinLat, Lng: box.MinLng}
	dst := geo.Point{Lat: box.MaxLat, Lng: box.MaxLng}
	it, err := p.Plan(src, dst, 8*3600)
	if err != nil {
		t.Fatal(err)
	}
	if it == nil {
		t.Fatal("no plan corner to corner")
	}
	if it.Hops() == 0 {
		t.Fatal("corner-to-corner trip should ride transit")
	}
	if it.Arrive <= it.Depart {
		t.Fatal("arrival before departure")
	}
}

func TestPlanLegsAreContiguous(t *testing.T) {
	city, _, p := testWorld(t)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		src := city.RandomPoint(rng)
		dst := city.RandomPoint(rng)
		it, err := p.Plan(src, dst, 7*3600+float64(rng.Intn(7200)))
		if err != nil {
			t.Fatal(err)
		}
		if it == nil {
			continue
		}
		if len(it.Legs) == 0 {
			t.Fatal("plan with no legs")
		}
		if it.Legs[0].From != src || it.Legs[len(it.Legs)-1].To != dst {
			t.Fatal("plan endpoints do not match the request")
		}
		for i, l := range it.Legs {
			if l.End < l.Start {
				t.Fatalf("leg %d ends before it starts", i)
			}
			if i > 0 {
				prev := it.Legs[i-1]
				if l.From != prev.To {
					t.Fatalf("leg %d does not start where leg %d ended", i, i-1)
				}
				// A leg may start after the previous ends (waiting), never before.
				if l.Start+1e-6 < prev.End-l.Wait-1e-6 && l.Mode == LegTransit {
					// start - wait should be ≥ prev.End (wait covers the gap)
					t.Fatalf("leg %d starts %.1f before wait accounting allows (prev end %.1f, wait %.1f)",
						i, l.Start, prev.End, l.Wait)
				}
			}
		}
		if it.WalkTime() < 0 || it.WaitTime() < 0 {
			t.Fatal("negative component times")
		}
		if it.TravelTime() <= 0 {
			t.Fatal("non-positive travel time")
		}
	}
}

func TestPlanEarlierDepartureNeverArrivesLater(t *testing.T) {
	city, _, p := testWorld(t)
	box := city.Graph.BBox()
	src := geo.Point{Lat: box.MinLat, Lng: box.MinLng}
	dst := geo.Point{Lat: box.MaxLat, Lng: box.MaxLng}
	a, err := p.Plan(src, dst, 8*3600)
	if err != nil || a == nil {
		t.Fatalf("plan A: %v", err)
	}
	b, err := p.Plan(src, dst, 8*3600+600)
	if err != nil || b == nil {
		t.Fatalf("plan B: %v", err)
	}
	if a.Arrive > b.Arrive+1e-6 {
		t.Fatalf("departing earlier arrived later: %.0f vs %.0f", a.Arrive, b.Arrive)
	}
}

func TestPlanNoServiceAtNight(t *testing.T) {
	// Departing after the last service of the day: only walking remains.
	city, _, p := testWorld(t)
	box := city.Graph.BBox()
	src := geo.Point{Lat: box.MinLat, Lng: box.MinLng}
	dst := geo.Point{Lat: box.MaxLat, Lng: box.MaxLng}
	it, err := p.Plan(src, dst, 23*3600+3000)
	if err != nil {
		t.Fatal(err)
	}
	if it != nil {
		for _, l := range it.Legs {
			if l.Mode == LegTransit && l.Start > 24*3600 {
				t.Fatal("boarding after end of service")
			}
		}
	}
}

func TestPlanInvalidCoordinates(t *testing.T) {
	_, _, p := testWorld(t)
	if _, err := p.Plan(geo.Point{Lat: 999, Lng: 0}, geo.Point{Lat: 40.7, Lng: -74}, 0); err == nil {
		t.Fatal("invalid coordinates must be rejected")
	}
}

func TestPlanUnreachableDestination(t *testing.T) {
	_, _, p := testWorld(t)
	src := geo.Point{Lat: 40.70, Lng: -74.02}
	farAway := geo.Point{Lat: 45.0, Lng: -74.02} // hundreds of km north
	it, err := p.Plan(src, farAway, 8*3600)
	if err != nil {
		t.Fatal(err)
	}
	if it != nil {
		t.Fatal("planner invented a plan to an unreachable destination")
	}
}

func TestItineraryMetrics(t *testing.T) {
	it := &Itinerary{
		Depart: 100,
		Arrive: 1000,
		Legs: []Leg{
			{Mode: LegWalk, Start: 100, End: 200, Distance: 130},
			{Mode: LegTransit, Start: 260, End: 600, Wait: 60},
			{Mode: LegRideShare, Start: 700, End: 900, Wait: 100},
			{Mode: LegWalk, Start: 900, End: 1000, Distance: 130},
		},
	}
	if it.TravelTime() != 900 {
		t.Fatalf("travel time %v", it.TravelTime())
	}
	if it.WalkTime() != 200 {
		t.Fatalf("walk time %v", it.WalkTime())
	}
	if it.WalkDistance() != 260 {
		t.Fatalf("walk distance %v", it.WalkDistance())
	}
	if it.WaitTime() != 160 {
		t.Fatalf("wait time %v", it.WaitTime())
	}
	if it.Hops() != 2 {
		t.Fatalf("hops %v", it.Hops())
	}
}

func TestMergeTransitLegs(t *testing.T) {
	it := &Itinerary{
		Legs: []Leg{
			{Mode: LegWalk, Start: 0, End: 10, Distance: 13},
			{Mode: LegTransit, RouteName: "A", Start: 20, End: 50},
			{Mode: LegTransit, RouteName: "A", Start: 50, End: 80},
			{Mode: LegTransit, RouteName: "B", Start: 100, End: 150},
			{Mode: LegWalk, Start: 150, End: 160, Distance: 13},
			{Mode: LegWalk, Start: 160, End: 170, Distance: 13},
		},
	}
	merged := mergeTransitLegs(it)
	if len(merged.Legs) != 4 {
		t.Fatalf("merged to %d legs, want 4", len(merged.Legs))
	}
	if merged.Legs[1].End != 80 || merged.Legs[1].RouteName != "A" {
		t.Fatalf("through-ride not merged: %+v", merged.Legs[1])
	}
	if merged.Legs[3].Distance != 26 {
		t.Fatalf("walks not merged: %+v", merged.Legs[3])
	}
	if merged.Hops() != 2 {
		t.Fatalf("hops after merge = %d", merged.Hops())
	}
}

func TestLegModeString(t *testing.T) {
	for _, m := range []LegMode{LegWalk, LegTransit, LegRideShare} {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
	if LegMode(7).String() != "legmode(7)" {
		t.Fatal("unknown mode string")
	}
}
