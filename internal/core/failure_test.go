package core

import (
	"slices"
	"sync"
	"testing"

	"xar/internal/geo"
	"xar/internal/roadnet"
)

// Failure-injection suite: exercises the degraded and adversarial
// conditions §IV anticipates (remote grids, unservable requests) plus
// operational edge cases (zero limits, budget exhaustion, races between
// search and book).

func TestRequestFromRemoteGridNotServed(t *testing.T) {
	e := newTestEngine(t)
	// A point far outside the padded region: no grid at all.
	far := geo.Point{Lat: 40.70, Lng: -73.00}
	req := Request{
		Source: far, Dest: far,
		LatestDeparture: 100, WalkLimit: 500,
	}
	if _, err := e.Search(req); err != ErrNotServable {
		t.Fatalf("err = %v, want ErrNotServable", err)
	}
	// Paper: "If a grid is neither in the driving distance of a landmark
	// ... nor within the walking distance of any landmarks/cluster, then
	// requests from it will not be served."
	if e.disc.Servable(far) {
		t.Fatal("far point reported servable")
	}
}

func TestZeroWalkLimitRequest(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 2000}); err != nil {
		t.Fatal(err)
	}
	// Zero walking tolerance: only a grid whose walkable list contains a
	// zero-distance cluster could serve it; generally nothing matches,
	// and the request must be cleanly unservable rather than crash.
	req := Request{
		Source: src, Dest: dst,
		EarliestDeparture: 0, LatestDeparture: 3600, WalkLimit: 0,
	}
	ms, err := e.Search(req)
	if err != nil && err != ErrNotServable {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.TotalWalk() > 0 {
			t.Fatal("zero-walk request matched with walking")
		}
	}
}

func TestDetourBudgetExhaustion(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, Seats: 8, DetourLimit: 600})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	// Book repeatedly until the budget runs out; the budget must never
	// go meaningfully negative and bookings must stop.
	for i := 0; i < 10; i++ {
		req := requestAlong(e, r, 0.2+float64(i%3)*0.1, 0.6+float64(i%3)*0.1, 1e6, 1000)
		ms, err := e.Search(req)
		if err != nil || len(ms) == 0 {
			break
		}
		if _, err := e.Book(ms[0], req); err != nil {
			break
		}
	}
	if r.DetourLimit < 0 {
		t.Fatalf("detour budget went negative: %v", r.DetourLimit)
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// padFinder lengthens the next path it is asked for: it walks the first
// road edge out of the path's start that has a way back, there and back,
// until it has added at least *pad meters, then sets *added to what it
// added and *pad to zero. The route stays a valid one, exactly *added
// longer than the shortest.
type padFinder struct {
	pathFinder
	g          *roadnet.Graph
	pad, added *float64
}

func (f padFinder) ShortestPath(a, b roadnet.NodeID) roadnet.SPResult {
	res := f.pathFinder.ShortestPath(a, b)
	if *f.pad <= 0 || !res.Reachable() {
		return res
	}
	for arc, hi := f.g.Out(a); arc < hi; arc++ {
		out := f.g.Arc(arc)
		back, err := f.g.PathLength([]roadnet.NodeID{out.To, a})
		if err != nil {
			continue
		}
		path := []roadnet.NodeID{a}
		for *f.added = 0; *f.added < *f.pad; *f.added += out.Length + back {
			path = append(path, out.To, a)
		}
		*f.pad = 0
		return roadnet.SPResult{Dist: res.Dist + *f.added, Path: append(path, res.Path[1:]...)}
	}
	panic("no two-way edge out of the path's start")
}

// TestBookingAllowanceIsFourEpsilon pins Theorem 6's additive 4ε: a
// booking's exact detour may overshoot the ride's remaining budget by up
// to 4ε and no further. The same booking is made twice with its first
// searched path padded, once past budget + 4ε and once just past the
// budget.
func TestBookingAllowanceIsFourEpsilon(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	const budget = 500.0
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, Seats: 4, DetourLimit: budget})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	// A request one block off the route whose pickup landmark is off it
	// too, so booking it searches at least one path.
	g := e.disc.City().Graph
	var req Request
	var m Match
	for i := 1; m.Ride == 0 && i < len(r.Route)-2; i++ {
		for arc, hi := g.Out(r.Route[i]); arc < hi; arc++ {
			out := g.Arc(arc)
			req = Request{Source: g.Point(out.To), Dest: g.Point(r.Route[len(r.Route)-2]), LatestDeparture: 7200, WalkLimit: 300}
			ms, _ := e.Search(req)
			if len(ms) == 0 || slices.Contains(r.Route, out.To) {
				continue
			}
			if lm, _ := e.disc.NearestLandmarkInCluster(req.Source, ms[0].PickupCluster); !slices.Contains(r.Route, e.disc.Landmarks[lm].Node) {
				m = ms[0]
				break
			}
		}
	}
	if m.Ride == 0 {
		t.Fatal("no match picks up off the route")
	}
	var pad, added float64
	alt := e.finders.New
	e.finders = &sync.Pool{New: func() any { return padFinder{alt().(pathFinder), g, &pad, &added} }}
	allowance := 4 * e.disc.Epsilon()

	pad = budget + allowance + 1
	if _, err := e.Book(m, req); err != ErrDetourExceeded || pad != 0 {
		t.Fatalf("a detour at least %.0f m past budget + 4ε: err %v (path padded: %v), want ErrDetourExceeded", added-budget-allowance, err, pad == 0)
	}
	if after := e.Ride(id); after.SeatsAvail != r.SeatsAvail || after.DetourLimit != budget || !slices.Equal(after.Route, r.Route) {
		t.Fatalf("a refused booking changed the ride: %+v", after)
	}

	pad = budget + 1
	bk, err := e.Book(m, req)
	if err != nil {
		t.Fatalf("%.0f m of padding on a %.0f m budget, with 4ε = %.0f m: %v", added, budget, allowance, err)
	}
	if bk.DetourActual < added || bk.DetourActual <= budget || bk.DetourActual > budget+allowance {
		t.Fatalf("booked detour %.1f m with %.1f m of padding: want in (budget %.0f, budget + 4ε %.0f]", bk.DetourActual, added, budget, budget+allowance)
	}
	if got := e.Ride(id).DetourLimit; got != 0 {
		t.Fatalf("an overshooting booking left %.1f m of budget, want 0", got)
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleMatchAfterRideFills(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, Seats: 2, DetourLimit: 3000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req, ms := mustSearchAlong(t, e, r, 0.3, 0.7, 1e6, 900)
	// Hold the match, fill the only seat through another booking, then
	// try to book the stale match.
	if _, err := e.Book(ms[0], req); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Book(ms[0], req); err != ErrRideFull && err != ErrNoLongerFeasible {
		t.Fatalf("stale booking err = %v, want full/no-longer-feasible", err)
	}
}

func TestStaleMatchAfterRideCompletes(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req, ms := mustSearchAlong(t, e, r, 0.3, 0.7, 1e6, 900)
	e.CompleteRide(id)
	if _, err := e.Book(ms[0], req); err != ErrUnknownRide {
		t.Fatalf("booking on a completed ride: err = %v", err)
	}
}

func TestSearchAfterEverythingCompleted(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	for i := 0; i < 5; i++ {
		if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.TrackAll(1e12); err != nil {
		t.Fatal(err)
	}
	req := Request{Source: src, Dest: dst, EarliestDeparture: 0, LatestDeparture: 1e12, WalkLimit: 1000}
	ms, err := e.Search(req)
	if err != nil && err != ErrNotServable {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("%d matches on an empty fleet", len(ms))
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOfferOutsideRegion(t *testing.T) {
	e := newTestEngine(t)
	offer := RideOffer{
		Source: geo.Point{Lat: 10, Lng: 10},
		Dest:   geo.Point{Lat: 10.1, Lng: 10},
	}
	// The nearest-node snap still finds *some* node (possibly absurdly
	// far); engines must either serve or cleanly reject, never panic.
	if _, err := e.CreateRide(offer); err == nil {
		// Snapped to distinct city nodes: legal, if odd. Clean up.
		if e.NumRides() != 1 {
			t.Fatal("accounting broken")
		}
	}
}

func TestManyTinyRides(t *testing.T) {
	// Rides between adjacent intersections: degenerate but legal.
	e := newTestEngine(t)
	g := e.disc.City().Graph
	created := 0
	for v := 0; v < g.NumNodes()-1 && created < 30; v += 7 {
		offer := RideOffer{
			Source:    g.Point(roadnet.NodeID(v)),
			Dest:      g.Point(roadnet.NodeID(v + 1)),
			Departure: float64(v),
		}
		if _, err := e.CreateRide(offer); err == nil {
			created++
		}
	}
	if created == 0 {
		t.Fatal("no tiny rides created")
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
