package mmtp

import (
	"testing"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/geo"
)

// fakeProvider matches every request (or none), recording the searches.
type fakeProvider struct {
	match    bool
	searches int
}

func (f *fakeProvider) SearchK(req core.Request, k int) ([]core.Match, error) {
	f.searches++
	if !f.match {
		return nil, nil
	}
	return []core.Match{{
		Ride:      1,
		PickupETA: req.EarliestDeparture + 60,
		DropoffETA: req.EarliestDeparture + 60 +
			geo.Haversine(req.Source, req.Dest)/7.0,
	}}, nil
}

func longWalkItinerary() *Itinerary {
	p0 := geo.Point{Lat: 40.70, Lng: -74.00}
	p1 := geo.Destination(p0, 90, 1500) // 1.5 km walk: infeasible at 1 km
	p2 := geo.Destination(p1, 90, 3000)
	return &Itinerary{
		Depart: 1000,
		Arrive: 1000 + 1500/1.3 + 500,
		Legs: []Leg{
			{Mode: LegWalk, From: p0, To: p1, Start: 1000, End: 1000 + 1500/1.3, Distance: 1500},
			{Mode: LegTransit, RouteName: "B", From: p1, To: p2,
				Start: 1000 + 1500/1.3 + 100, End: 1000 + 1500/1.3 + 500, Wait: 100},
		},
	}
}

func longWaitItinerary() *Itinerary {
	p0 := geo.Point{Lat: 40.70, Lng: -74.00}
	p1 := geo.Destination(p0, 90, 300)
	p2 := geo.Destination(p1, 90, 3000)
	return &Itinerary{
		Depart: 1000,
		Arrive: 3000,
		Legs: []Leg{
			{Mode: LegWalk, From: p0, To: p1, Start: 1000, End: 1230, Distance: 300},
			{Mode: LegTransit, RouteName: "B", From: p1, To: p2,
				Start: 2300, End: 3000, Wait: 1070}, // ~18 min wait: infeasible
		},
	}
}

func TestAiderReplacesLongWalk(t *testing.T) {
	it := longWalkItinerary()
	fp := &fakeProvider{match: true}
	res, err := Aider(it, fp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible != 1 || res.Replaced != 1 {
		t.Fatalf("infeasible=%d replaced=%d, want 1/1", res.Infeasible, res.Replaced)
	}
	if res.Itinerary.Legs[0].Mode != LegRideShare {
		t.Fatalf("first leg is %v, want rideshare", res.Itinerary.Legs[0].Mode)
	}
	if res.Itinerary.WalkDistance() != 0 {
		t.Fatalf("walk distance %v after replacement", res.Itinerary.WalkDistance())
	}
	if fp.searches != 1 {
		t.Fatalf("searches = %d", fp.searches)
	}
}

func TestAiderReplacesLongWait(t *testing.T) {
	it := longWaitItinerary()
	fp := &fakeProvider{match: true}
	res, err := Aider(it, fp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaced != 1 {
		t.Fatalf("replaced=%d, want 1", res.Replaced)
	}
	// Replacing the 18-minute wait should shorten the trip.
	if res.Itinerary.TravelTime() >= it.TravelTime() {
		t.Fatalf("aided trip %.0fs not faster than %.0fs", res.Itinerary.TravelTime(), it.TravelTime())
	}
}

func TestAiderKeepsLegWhenNoRide(t *testing.T) {
	it := longWalkItinerary()
	fp := &fakeProvider{match: false}
	res, err := Aider(it, fp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaced != 0 || res.Infeasible != 1 {
		t.Fatalf("replaced=%d infeasible=%d", res.Replaced, res.Infeasible)
	}
	if len(res.Itinerary.Legs) != len(it.Legs) {
		t.Fatal("legs changed without a match")
	}
}

func TestAiderFeasiblePlanUntouched(t *testing.T) {
	p0 := geo.Point{Lat: 40.70, Lng: -74.00}
	p1 := geo.Destination(p0, 90, 300)
	it := &Itinerary{
		Depart: 0, Arrive: 300,
		Legs: []Leg{{Mode: LegWalk, From: p0, To: p1, Start: 0, End: 230, Distance: 300}},
	}
	fp := &fakeProvider{match: true}
	res, err := Aider(it, fp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible != 0 || fp.searches != 0 {
		t.Fatalf("feasible plan triggered %d searches", fp.searches)
	}
}

func TestAiderNilItinerary(t *testing.T) {
	fp := &fakeProvider{match: true}
	if _, err := Aider(nil, fp); err != nil {
		t.Fatal(err)
	}
}

// multiHopItinerary builds a 3-hop transit plan (k=2 intermediate points).
func multiHopItinerary() *Itinerary {
	p := make([]geo.Point, 5)
	p[0] = geo.Point{Lat: 40.70, Lng: -74.00}
	for i := 1; i < 5; i++ {
		p[i] = geo.Destination(p[i-1], 90, 1200)
	}
	legs := []Leg{
		{Mode: LegWalk, From: p[0], To: p[1], Start: 0, End: 900, Distance: 1170},
		{Mode: LegTransit, RouteName: "A", From: p[1], To: p[2], Start: 1000, End: 1500, Wait: 100},
		{Mode: LegTransit, RouteName: "B", From: p[2], To: p[3], Start: 1700, End: 2200, Wait: 200},
		{Mode: LegTransit, RouteName: "C", From: p[3], To: p[4], Start: 2500, End: 3000, Wait: 300},
	}
	return &Itinerary{Depart: 0, Arrive: 3000, Legs: legs}
}

func TestEnhancerCombinationCount(t *testing.T) {
	it := multiHopItinerary() // 4 legs → 5 points → k=3 intermediates
	fp := &fakeProvider{match: false}
	res, err := Enhancer(it, fp)
	if err != nil {
		t.Fatal(err)
	}
	// C(k+1, 2) with k=3: 6 combinations.
	if res.Searches != 6 {
		t.Fatalf("searches = %d, want C(4,2)=6", res.Searches)
	}
	if res.Improved {
		t.Fatal("no matches but improved")
	}
}

func TestEnhancerLinearFallbackAboveMaxHops(t *testing.T) {
	// Build a plan with k=6 intermediate points (7 legs).
	p := geo.Point{Lat: 40.70, Lng: -74.00}
	var legs []Leg
	cur := p
	for i := 0; i < 7; i++ {
		next := geo.Destination(cur, 90, 800)
		legs = append(legs, Leg{
			Mode: LegTransit, RouteName: string(rune('A' + i)),
			From: cur, To: next,
			Start: float64(i * 500), End: float64(i*500 + 400),
		})
		cur = next
	}
	it := &Itinerary{Depart: 0, Arrive: legs[len(legs)-1].End, Legs: legs}
	fp := &fakeProvider{match: false}
	res, err := Enhancer(it, fp)
	if err != nil {
		t.Fatal(err)
	}
	// 2k+1 with k=6: 13 searches (source→each of 6+dest, each of 6→dest).
	if res.Searches != 13 {
		t.Fatalf("searches = %d, want 2k+1=13", res.Searches)
	}
}

func TestEnhancerReplacesWholeTrip(t *testing.T) {
	it := multiHopItinerary()
	fp := &fakeProvider{match: true}
	res, err := Enhancer(it, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Improved {
		t.Fatal("universal matches but no improvement")
	}
	if res.HopsAfter > res.HopsBefore {
		t.Fatalf("hops got worse: %d → %d", res.HopsBefore, res.HopsAfter)
	}
	// The widest span is source→destination: a single rideshare leg.
	if len(res.Itinerary.Legs) != 1 || res.Itinerary.Legs[0].Mode != LegRideShare {
		t.Fatalf("expected whole-trip replacement, got %d legs", len(res.Itinerary.Legs))
	}
}

func TestEnhancerNilItinerary(t *testing.T) {
	fp := &fakeProvider{match: true}
	res, err := Enhancer(nil, fp)
	if err != nil || res.Improved {
		t.Fatalf("nil itinerary: %v %v", err, res.Improved)
	}
}

// Integration: Aider over a real planner itinerary with a real XAR engine.
func TestAiderWithRealEngine(t *testing.T) {
	city, _, p := testWorld(t)
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Flood the city with offers so some infeasible segment finds a ride.
	box := city.Graph.BBox()
	corners := []geo.Point{
		{Lat: box.MinLat, Lng: box.MinLng},
		{Lat: box.MaxLat, Lng: box.MaxLng},
		{Lat: box.MinLat, Lng: box.MaxLng},
		{Lat: box.MaxLat, Lng: box.MinLng},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			for dep := 7 * 3600; dep < 10*3600; dep += 600 {
				_, _ = eng.CreateRide(core.RideOffer{
					Source: corners[i], Dest: corners[j],
					Departure: float64(dep), DetourLimit: 3000,
				})
			}
		}
	}
	src := geo.Point{Lat: box.MinLat, Lng: box.MinLng}
	dst := geo.Point{Lat: box.MaxLat, Lng: box.MaxLng}
	it, err := p.Plan(src, dst, 8*3600)
	if err != nil || it == nil {
		t.Fatalf("plan: %v", err)
	}
	res, err := Aider(it, eng)
	if err != nil {
		t.Fatal(err)
	}
	// The outcome depends on the plan's feasibility, but the API contract
	// holds: the result itinerary is well-formed.
	if res.Itinerary == nil || len(res.Itinerary.Legs) == 0 {
		t.Fatal("aider destroyed the itinerary")
	}
	if res.Itinerary.Legs[0].From != src || res.Itinerary.Legs[len(res.Itinerary.Legs)-1].To != dst {
		t.Fatal("aider changed the trip endpoints")
	}
}
