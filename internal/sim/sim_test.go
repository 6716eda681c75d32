package sim

import (
	"testing"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/mmtp"
	"xar/internal/roadnet"
	"xar/internal/transit"
	"xar/internal/tshare"
	"xar/internal/workload"
)

func testCity(t testing.TB) *roadnet.City {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func testXAR(t testing.TB, city *roadnet.City) *XARSystem {
	t.Helper()
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &XARSystem{Engine: eng}
}

func testTShare(t testing.TB, city *roadnet.City) *TShareSystem {
	t.Helper()
	eng, err := tshare.New(city, tshare.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &TShareSystem{Engine: eng}
}

func testTrips(t testing.TB, city *roadnet.City, n int) []workload.Trip {
	t.Helper()
	cfg := workload.DefaultConfig(n, 11)
	cfg.StartHour = 6
	cfg.EndHour = 12
	cfg.MaxTripDist = 4000
	trips, err := workload.Generate(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return trips
}

func TestRunXARProtocol(t *testing.T) {
	city := testCity(t)
	sys := testXAR(t, city)
	trips := testTrips(t, city, 400)
	res, err := Run(sys, trips, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 400 {
		t.Fatalf("requests = %d", res.Requests)
	}
	// Every request is either matched, created, or unservable.
	if res.Matched+res.Created+res.NotServable != res.Requests {
		t.Fatalf("accounting broken: %d + %d + %d != %d",
			res.Matched, res.Created, res.NotServable, res.Requests)
	}
	if res.Created == 0 {
		t.Fatal("no rides created — the protocol must seed the fleet")
	}
	if res.Matched == 0 {
		t.Fatal("no requests matched — sharing never happened")
	}
	if res.SearchTimes.N() != 400 {
		t.Fatalf("search latency samples = %d", res.SearchTimes.N())
	}
	if res.MatchRate() <= 0 || res.MatchRate() >= 1 {
		t.Fatalf("match rate %v", res.MatchRate())
	}
	// The approximation guarantee holds for every booking.
	eps := sys.Engine.Disc().Epsilon()
	if res.ApproxErrors.N() > 0 && res.ApproxErrors.Max() > 4*eps+1e-6 {
		t.Fatalf("approx error %.1f > 4ε = %.1f", res.ApproxErrors.Max(), 4*eps)
	}
	// Walks respect the configured limit.
	if res.Walks.N() > 0 && res.Walks.Max() > DefaultConfig().WalkLimit+1e-6 {
		t.Fatalf("walk %.1f > limit", res.Walks.Max())
	}
	if err := sys.Engine.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTShareProtocol(t *testing.T) {
	city := testCity(t)
	sys := testTShare(t, city)
	trips := testTrips(t, city, 250)
	res, err := Run(sys, trips, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched+res.Created+res.NotServable != res.Requests {
		t.Fatal("accounting broken")
	}
	if res.Created == 0 || res.Matched == 0 {
		t.Fatalf("created=%d matched=%d", res.Created, res.Matched)
	}
}

func TestRunLookToBookMultipliesSearches(t *testing.T) {
	city := testCity(t)
	sys := testXAR(t, city)
	trips := testTrips(t, city, 50)
	cfg := DefaultConfig()
	cfg.LookToBook = 5
	res, err := Run(sys, trips, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchTimes.N() != 50*5 {
		t.Fatalf("search samples = %d, want 250", res.SearchTimes.N())
	}
}

func TestRunKCapsMatches(t *testing.T) {
	city := testCity(t)
	sys := testXAR(t, city)
	trips := testTrips(t, city, 150)
	cfg := DefaultConfig()
	cfg.K = 1
	res, err := Run(sys, trips, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMatches > res.Requests {
		t.Fatalf("k=1 returned %d matches over %d requests", res.TotalMatches, res.Requests)
	}
}

func TestCompareTaxi(t *testing.T) {
	city := testCity(t)
	trips := testTrips(t, city, 100)
	m := CompareTaxi(city, trips)
	if m.Served == 0 || m.Cars != m.Served {
		t.Fatalf("taxi served=%d cars=%d; every taxi trip uses one car", m.Served, m.Cars)
	}
	if m.TravelTime.Mean() <= 0 {
		t.Fatal("taxi travel time must be positive")
	}
	if m.WalkTime.Max() != 0 {
		t.Fatal("taxi involves no walking")
	}
}

func TestCompareRideShareUsesFewerCars(t *testing.T) {
	city := testCity(t)
	sys := testXAR(t, city)
	trips := testTrips(t, city, 300)
	taxi := CompareTaxi(city, trips)
	rs, err := CompareRideShare(sys.Engine, trips, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Served == 0 {
		t.Fatal("ride share served nobody")
	}
	if rs.Cars >= taxi.Cars {
		t.Fatalf("ride sharing used %d cars vs taxi %d; sharing must reduce cars", rs.Cars, taxi.Cars)
	}
}

func TestCompareTransit(t *testing.T) {
	city := testCity(t)
	net, err := transit.Generate(city)
	if err != nil {
		t.Fatal(err)
	}
	planner := mmtp.NewPlanner(net)
	trips := testTrips(t, city, 100)
	pt := CompareTransit(planner, trips)
	if pt.Served == 0 {
		t.Fatal("transit served nobody")
	}
	if pt.Cars != 0 {
		t.Fatal("public transport uses no cars")
	}
	taxi := CompareTaxi(city, trips)
	if pt.TravelTime.Mean() <= taxi.TravelTime.Mean() {
		t.Fatalf("PT (%.1f min) must be slower than taxi (%.1f min)",
			pt.TravelTime.Mean(), taxi.TravelTime.Mean())
	}
}

func TestCompareTransitPlusRideShare(t *testing.T) {
	city := testCity(t)
	net, err := transit.Generate(city)
	if err != nil {
		t.Fatal(err)
	}
	planner := mmtp.NewPlanner(net)
	sys := testXAR(t, city)
	trips := testTrips(t, city, 150)
	rspt, err := CompareTransitPlusRideShare(sys.Engine, planner, trips, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rspt.Served == 0 {
		t.Fatal("RS+PT served nobody")
	}
	// RS+PT uses fewer cars than standalone ride sharing on the same
	// demand (the paper reports ~50% fewer).
	rsEngine := testXAR(t, city)
	rs, err := CompareRideShare(rsEngine.Engine, trips, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rspt.Cars >= rs.Cars {
		t.Fatalf("RS+PT cars %d >= RS cars %d", rspt.Cars, rs.Cars)
	}
}

func TestMarkNotServable(t *testing.T) {
	base := core.ErrNotServable
	wrapped := MarkNotServable(base)
	if !isNotServable(wrapped) {
		t.Fatal("wrapped error not detected")
	}
	if isNotServable(base) {
		t.Fatal("unwrapped error misdetected")
	}
	if wrapped.Error() != base.Error() {
		t.Fatal("message lost")
	}
}
