package xar

import (
	"math"
	"testing"
)

func smallOptions() Options {
	o := DefaultOptions()
	o.CityRows = 20
	o.CityCols = 12
	return o
}

func TestNewSystem(t *testing.T) {
	sys, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Landmarks == 0 || st.Clusters == 0 || st.RoadNodes == 0 {
		t.Fatalf("empty deployment: %+v", st)
	}
	if st.Epsilon > 4*smallOptions().Delta {
		t.Fatalf("ε = %.1f exceeds 4δ", st.Epsilon)
	}
	if st.IndexBytes == 0 {
		t.Fatal("index size not measured")
	}
}

func TestFacadeLifecycle(t *testing.T) {
	sys, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := sys.RandomServablePoint(1)
	b := sys.RandomServablePoint(99)
	id, err := sys.CreateRide(RideOffer{Source: a, Dest: b, Departure: 1000, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumRides() != 1 {
		t.Fatalf("NumRides = %d", sys.NumRides())
	}

	req := Request{
		Source: a, Dest: b,
		EarliestDeparture: 900, LatestDeparture: 1900,
		WalkLimit: 1000,
	}
	ms, err := sys.Search(req)
	if err != nil && err != ErrNotServable {
		t.Fatal(err)
	}
	if len(ms) > 0 {
		bk, err := sys.Book(ms[0], req)
		if err == nil {
			if bk.Ride != ms[0].Ride {
				t.Fatal("booking references the wrong ride")
			}
			if bk.ShortestPathRuns > 4 {
				t.Fatalf("booking ran %d shortest paths", bk.ShortestPathRuns)
			}
		}
	}

	arrived, err := sys.Track(id, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !arrived {
		t.Fatal("ride should have arrived by the heat death of the universe")
	}
	if !sys.CompleteRide(id) {
		t.Fatal("completion failed")
	}
	if sys.NumRides() != 0 {
		t.Fatal("fleet not empty after completion")
	}
}

// TestFacadeRefusesNonFiniteInputs: the System refuses what the engine
// refuses — an offer with a non-finite departure or detour limit, a
// request with NaN in it — and leaves the fleet as it was.
func TestFacadeRefusesNonFiniteInputs(t *testing.T) {
	sys, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := sys.RandomServablePoint(1)
	b := sys.RandomServablePoint(99)
	nan := math.NaN()
	for _, offer := range []RideOffer{
		{Source: a, Dest: b, Departure: nan, DetourLimit: 2000},
		{Source: a, Dest: b, Departure: math.Inf(1), DetourLimit: 2000},
		{Source: a, Dest: b, Departure: 1000, DetourLimit: nan},
		{Source: a, Dest: b, Departure: 1000, DetourLimit: math.Inf(1)},
	} {
		if id, err := sys.CreateRide(offer); err == nil {
			t.Errorf("CreateRide(departure %v, detour %v) registered ride %d", offer.Departure, offer.DetourLimit, id)
		}
	}
	if _, err := sys.CreateRide(RideOffer{Source: a, Dest: b, Departure: 1000, DetourLimit: 2000}); err != nil {
		t.Fatal(err)
	}
	req := Request{Source: a, Dest: b, EarliestDeparture: 900, LatestDeparture: 1900, WalkLimit: 1000}
	ms, err := sys.Search(req)
	if err != nil || len(ms) == 0 {
		t.Fatalf("search along the ride: %d matches, %v", len(ms), err)
	}
	for name, mut := range map[string]func(*Request){
		"NaN earliest departure": func(r *Request) { r.EarliestDeparture = nan },
		"NaN latest departure":   func(r *Request) { r.LatestDeparture = nan },
		"NaN walk limit":         func(r *Request) { r.WalkLimit = nan },
	} {
		bad := req
		mut(&bad)
		if _, err := sys.Search(bad); err == nil {
			t.Errorf("%s: Search accepted the request", name)
		}
		if bk, err := sys.Book(ms[0], bad); err == nil {
			t.Errorf("%s: Book confirmed %+v", name, bk)
		}
	}
	if sys.NumRides() != 1 {
		t.Fatalf("NumRides = %d, want the one valid offer", sys.NumRides())
	}
	if err := sys.Engine().Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchKFacade(t *testing.T) {
	sys, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := sys.RandomServablePoint(5)
	b := sys.RandomServablePoint(77)
	for i := 0; i < 5; i++ {
		if _, err := sys.CreateRide(RideOffer{Source: a, Dest: b, Departure: float64(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	req := Request{Source: a, Dest: b, EarliestDeparture: 0, LatestDeparture: 3600, WalkLimit: 1000}
	ms, err := sys.SearchK(req, 2)
	if err != nil && err != ErrNotServable {
		t.Fatal(err)
	}
	if len(ms) > 2 {
		t.Fatalf("SearchK(2) returned %d", len(ms))
	}
}

func TestTrackAllFacade(t *testing.T) {
	sys, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := sys.RandomServablePoint(3)
	b := sys.RandomServablePoint(44)
	if _, err := sys.CreateRide(RideOffer{Source: a, Dest: b, Departure: 0}); err != nil {
		t.Fatal(err)
	}
	done, err := sys.TrackAll(1e9)
	if err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Fatalf("TrackAll completed %d rides, want 1", done)
	}
}

func TestRandomServablePointDeterministic(t *testing.T) {
	sys, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sys.RandomServablePoint(7) != sys.RandomServablePoint(7) {
		t.Fatal("same seed must give the same point")
	}
	if sys.RandomServablePoint(7) == sys.RandomServablePoint(8) {
		t.Fatal("different seeds should differ")
	}
}

func TestFacadeCancelAndGeoJSON(t *testing.T) {
	sys, err := New(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := sys.RandomServablePoint(1)
	b := sys.RandomServablePoint(99)
	id, err := sys.CreateRide(RideOffer{Source: a, Dest: b, Departure: 1000, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sys.RouteGeoJSON(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) == 0 || doc[0] != '{' {
		t.Fatal("GeoJSON not produced")
	}
	req := Request{Source: a, Dest: b, EarliestDeparture: 900, LatestDeparture: 2500, WalkLimit: 1000}
	ms, err := sys.Search(req)
	if err != nil && err != ErrNotServable {
		t.Fatal(err)
	}
	if len(ms) > 0 {
		bk, err := sys.Book(ms[0], req)
		if err == nil {
			if err := sys.CancelBooking(id, bk); err != nil {
				t.Fatalf("cancel: %v", err)
			}
		}
	}
	if m := sys.Metrics(); m.RidesCreated != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if sys.Engine() == nil {
		t.Fatal("engine accessor nil")
	}
	// GPS tracking through the facade.
	arrived, err := sys.TrackGPS(id, b)
	if err != nil {
		t.Fatal(err)
	}
	_ = arrived
}
