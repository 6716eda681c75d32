package core

import (
	"math"
	"math/rand"
	"testing"

	"xar/internal/discretize"
	"xar/internal/geo"
	"xar/internal/index"
	"xar/internal/roadnet"
)

// newTestEngine builds a small deterministic world. The same instance is
// shared via sync.Once-like caching per test binary run to keep the suite
// fast; tests that mutate state build their own.
func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// farPoints returns two servable points far apart.
func farPoints(t testing.TB, e *Engine) (geo.Point, geo.Point) {
	t.Helper()
	g := e.disc.City().Graph
	a := g.Point(0)
	b := g.Point(roadnet.NodeID(g.NumNodes() - 1))
	if !e.disc.Servable(a) || !e.disc.Servable(b) {
		t.Fatal("corner nodes not servable")
	}
	return a, b
}

func TestNewEngineValidation(t *testing.T) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(10, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.DefaultDetourLimit = -1
	if _, err := NewEngine(d, bad); err == nil {
		t.Fatal("negative default detour must be rejected")
	}
	bad = DefaultConfig()
	bad.DefaultSeats = -2
	if _, err := NewEngine(d, bad); err == nil {
		t.Fatal("negative default seats must be rejected")
	}
}

func TestCreateRideBasics(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	if r == nil {
		t.Fatal("created ride not retrievable")
	}
	if r.SeatsAvail != e.cfg.DefaultSeats-1 {
		t.Fatalf("seats avail = %d, want %d (driver occupies one)", r.SeatsAvail, e.cfg.DefaultSeats-1)
	}
	if r.DetourLimit != e.cfg.DefaultDetourLimit {
		t.Fatalf("detour limit = %v", r.DetourLimit)
	}
	if len(r.Route) < 2 || len(r.Via) != 2 {
		t.Fatalf("route %d nodes, %d via-points", len(r.Route), len(r.Via))
	}
	if r.RouteETA[0] != 1000 {
		t.Fatalf("departure ETA = %v", r.RouteETA[0])
	}
	for i := 1; i < len(r.RouteETA); i++ {
		if r.RouteETA[i] <= r.RouteETA[i-1] {
			t.Fatalf("ETAs not strictly increasing at %d", i)
		}
	}
	if e.NumRides() != 1 {
		t.Fatalf("NumRides = %d", e.NumRides())
	}
}

func TestCreateRideValidation(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	if _, err := e.CreateRide(RideOffer{Source: geo.Point{Lat: 99, Lng: 0}, Dest: dst}); err == nil {
		t.Fatal("invalid source must be rejected")
	}
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: src}); err == nil {
		t.Fatal("coincident endpoints must be rejected")
	}
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Seats: 1}); err == nil {
		t.Fatal("capacity 1 must be rejected")
	}
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, DetourLimit: -4}); err == nil {
		t.Fatal("negative detour must be rejected")
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{
		Source: geo.Point{Lat: 40.7, Lng: -74}, Dest: geo.Point{Lat: 40.71, Lng: -74},
		EarliestDeparture: 0, LatestDeparture: 100, WalkLimit: 500,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.LatestDeparture = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted window must be rejected")
	}
	bad = good
	bad.WalkLimit = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative walk limit must be rejected")
	}
	bad = good
	bad.Source = geo.Point{Lat: 999, Lng: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid coordinates must be rejected")
	}
}

// requestAlong builds a request near the ride's corridor: source near a
// point a fraction along the route, destination near a later fraction.
func requestAlong(e *Engine, r *index.Ride, fromFrac, toFrac, window, walk float64) Request {
	g := e.disc.City().Graph
	si := int(fromFrac * float64(len(r.Route)-1))
	di := int(toFrac * float64(len(r.Route)-1))
	return Request{
		Source:            g.Point(r.Route[si]),
		Dest:              g.Point(r.Route[di]),
		EarliestDeparture: r.Departure - window,
		LatestDeparture:   r.Departure + window,
		WalkLimit:         walk,
	}
}

// mustSearchAlong is requestAlong + Search with a hard failure when
// nothing matches. Every test world is seeded, so "no match" is a
// behavior regression to report, not layout noise to skip over.
func mustSearchAlong(t testing.TB, e *Engine, r *index.Ride, fromFrac, toFrac, window, walk float64) (Request, []Match) {
	t.Helper()
	req := requestAlong(e, r, fromFrac, toFrac, window, walk)
	ms, err := e.Search(req)
	if err != nil {
		t.Fatalf("search along ride %d [%.2f→%.2f]: %v", r.ID, fromFrac, toFrac, err)
	}
	if len(ms) == 0 {
		t.Fatalf("search along ride %d [%.2f→%.2f] found no match on the seeded world", r.ID, fromFrac, toFrac)
	}
	return req, ms
}

func TestSearchFindsCorridorRide(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 1500})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req := requestAlong(e, r, 0.2, 0.8, 3600, 900)
	ms, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Ride == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("corridor request did not match the ride (got %d matches)", len(ms))
	}
}

func TestSearchMatchesAreValid(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	rng := rand.New(rand.NewSource(3))
	var ids []index.RideID
	for i := 0; i < 15; i++ {
		a := e.disc.City().RandomPoint(rng)
		b := e.disc.City().RandomPoint(rng)
		id, err := e.CreateRide(RideOffer{Source: a, Dest: b, Departure: float64(rng.Intn(3600)), DetourLimit: 1500})
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	if len(ids) < 5 {
		t.Fatalf("only %d rides created", len(ids))
	}
	_ = src
	_ = dst

	for trial := 0; trial < 50; trial++ {
		req := Request{
			Source:            e.disc.City().RandomPoint(rng),
			Dest:              e.disc.City().RandomPoint(rng),
			EarliestDeparture: 0,
			LatestDeparture:   5400,
			WalkLimit:         600 + rng.Float64()*600,
		}
		ms, err := e.Search(req)
		if err == ErrNotServable {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range ms {
			r := e.Ride(m.Ride)
			if r == nil {
				t.Fatal("match references unknown ride")
			}
			if m.TotalWalk() > req.WalkLimit+1e-9 {
				t.Fatalf("match walk %.1f > limit %.1f", m.TotalWalk(), req.WalkLimit)
			}
			if m.DetourEstimate > r.DetourLimit+1e-9 {
				t.Fatalf("match detour %.1f > ride limit %.1f", m.DetourEstimate, r.DetourLimit)
			}
			if m.DropoffETA < m.PickupETA &&
				!(m.pickupOrder == m.dropoffOrder) {
				t.Fatalf("drop-off ETA %v before pickup ETA %v", m.DropoffETA, m.PickupETA)
			}
			if m.PickupETA < req.EarliestDeparture-1e-9 || m.PickupETA > req.LatestDeparture+1e-9 {
				t.Fatalf("pickup ETA %v outside window [%v,%v]", m.PickupETA, req.EarliestDeparture, req.LatestDeparture)
			}
			if r.SeatsAvail <= 0 {
				t.Fatal("match on a full ride")
			}
			if i > 0 && ms[i-1].TotalWalk() > m.TotalWalk()+1e-9 {
				t.Fatal("matches not sorted by total walk")
			}
		}
	}
}

func TestSearchTimeWindowExcludes(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 10000, DetourLimit: 1500})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	// A window long before the ride departs must not match it.
	req := requestAlong(e, r, 0.2, 0.8, 0, 900)
	req.EarliestDeparture = 0
	req.LatestDeparture = 100
	ms, err := e.Search(req)
	if err != nil && err != ErrNotServable {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Ride == id {
			t.Fatal("ride matched outside its time window")
		}
	}
}

func TestSearchWrongDirectionExcluded(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 800})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	// Request travelling against the ride: source late on the route,
	// destination early.
	req := requestAlong(e, r, 0.9, 0.1, 3600, 600)
	ms, err := e.Search(req)
	if err != nil && err != ErrNotServable {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Ride != id {
			continue
		}
		// The only legitimate way is both supports at the same order with
		// drop-off not before pickup; a long backwards trip with a small
		// detour budget should not produce that.
		if m.DropoffETA < m.PickupETA {
			t.Fatal("backwards match accepted")
		}
	}
}

func TestSearchKLimits(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	for i := 0; i < 8; i++ {
		if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: float64(1000 + i), DetourLimit: 1500}); err != nil {
			t.Fatal(err)
		}
	}
	r := e.Ride(1)
	req := requestAlong(e, r, 0.2, 0.8, 3600, 900)
	all, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Skipf("need >= 2 matches for this test, got %d", len(all))
	}
	two, err := e.SearchK(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 {
		t.Fatalf("SearchK(2) returned %d", len(two))
	}
	if two[0].Ride != all[0].Ride || two[1].Ride != all[1].Ride {
		t.Fatal("SearchK must return the best-k prefix")
	}
	unlimited, err := e.SearchK(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(unlimited) != len(all) {
		t.Fatal("k=0 must mean unlimited")
	}
}

func TestSearchNotServable(t *testing.T) {
	e := newTestEngine(t)
	req := Request{
		Source: geo.Point{Lat: 10, Lng: 10}, Dest: geo.Point{Lat: 10.1, Lng: 10},
		LatestDeparture: 100, WalkLimit: 500,
	}
	if _, err := e.Search(req); err != ErrNotServable {
		t.Fatalf("err = %v, want ErrNotServable", err)
	}
}

func TestBookEndToEnd(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req := requestAlong(e, r, 0.25, 0.75, 3600, 900)
	ms, err := e.Search(req)
	if err != nil || len(ms) == 0 {
		t.Fatalf("search: %v, %d matches", err, len(ms))
	}
	var m Match
	for _, c := range ms {
		if c.Ride == id {
			m = c
			break
		}
	}
	if m.Ride != id {
		t.Fatal("target ride not matched")
	}
	seatsBefore := r.SeatsAvail
	detourBefore := r.DetourLimit
	viaBefore := len(r.Via)
	lenBefore, _ := e.disc.City().Graph.PathLength(r.Route)

	bk, err := e.Book(m, req)
	if err != nil {
		t.Fatal(err)
	}
	if bk.ShortestPathRuns > 4 {
		t.Fatalf("booking ran %d shortest paths, paper bound is 4", bk.ShortestPathRuns)
	}
	r = e.Ride(id) // snapshots don't observe the booking; re-fetch
	if r.SeatsAvail != seatsBefore-1 {
		t.Fatalf("seats %d → %d", seatsBefore, r.SeatsAvail)
	}
	if len(r.Via) != viaBefore+2 {
		t.Fatalf("via-points %d → %d, want +2", viaBefore, len(r.Via))
	}
	lenAfter, err := e.disc.City().Graph.PathLength(r.Route)
	if err != nil {
		t.Fatalf("route corrupted by booking: %v", err)
	}
	if math.Abs((lenAfter-lenBefore)-bk.DetourActual) > 1 {
		t.Fatalf("reported detour %.1f, route grew %.1f", bk.DetourActual, lenAfter-lenBefore)
	}
	if detourBefore-r.DetourLimit < bk.DetourActual-1e-6 && r.DetourLimit > 0 {
		t.Fatalf("budget not charged: %v → %v for detour %v", detourBefore, r.DetourLimit, bk.DetourActual)
	}
	// Approximation guarantee: the booking's additive error is ≤ 4ε.
	if bk.ApproxError() > 4*e.disc.Epsilon()+1e-6 {
		t.Fatalf("approx error %.1f > 4ε = %.1f", bk.ApproxError(), 4*e.disc.Epsilon())
	}
	// Via-point ordering along the route.
	for i := 1; i < len(r.Via); i++ {
		if r.Via[i].RouteIdx < r.Via[i-1].RouteIdx {
			t.Fatal("via-points out of route order")
		}
	}
	// Via nodes actually appear at their claimed route positions.
	for _, v := range r.Via {
		if r.Route[v.RouteIdx] != v.Node {
			t.Fatalf("via %v not at route index %d", v.Node, v.RouteIdx)
		}
	}
	// Pickup must precede drop-off.
	var puIdx, doIdx = -1, -1
	for _, v := range r.Via {
		switch v.Kind {
		case index.ViaPickup:
			puIdx = v.RouteIdx
		case index.ViaDropoff:
			doIdx = v.RouteIdx
		}
	}
	if puIdx < 0 || doIdx < 0 || doIdx < puIdx {
		t.Fatalf("pickup at %d, drop-off at %d", puIdx, doIdx)
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBookConsumesSeatsUntilFull(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, Seats: 3, DetourLimit: 4000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	booked := 0
	for i := 0; i < 5; i++ {
		req := requestAlong(e, r, 0.3, 0.7, 3600, 900)
		ms, err := e.Search(req)
		if err != nil || len(ms) == 0 {
			break
		}
		var m *Match
		for j := range ms {
			if ms[j].Ride == id {
				m = &ms[j]
				break
			}
		}
		if m == nil {
			break
		}
		if _, err := e.Book(*m, req); err != nil {
			if err == ErrRideFull {
				break
			}
			t.Fatal(err)
		}
		booked++
		r = e.Ride(id) // re-fetch: snapshots don't observe bookings
	}
	if booked != 2 {
		t.Fatalf("capacity-3 ride accepted %d bookings, want 2 (driver + 2)", booked)
	}
	if r.SeatsAvail != 0 {
		t.Fatalf("seats avail = %d after filling", r.SeatsAvail)
	}
}

func TestBookUnknownRide(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	req := Request{Source: src, Dest: dst, LatestDeparture: 100, WalkLimit: 500}
	if _, err := e.Book(Match{Ride: 999}, req); err != ErrUnknownRide {
		t.Fatalf("err = %v, want ErrUnknownRide", err)
	}
}

func TestTrackAdvancesAndCompletes(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	endETA := r.RouteETA[len(r.RouteETA)-1]

	arrived, err := e.Track(id, endETA/2)
	if err != nil {
		t.Fatal(err)
	}
	if arrived {
		t.Fatal("ride arrived at half time")
	}
	// e.Ride returns a snapshot; re-fetch to observe the advance.
	if e.Ride(id).Progress == 0 {
		t.Fatal("tracking did not advance progress")
	}
	arrived, err = e.Track(id, endETA+1)
	if err != nil {
		t.Fatal(err)
	}
	if !arrived {
		t.Fatal("ride did not arrive after its final ETA")
	}
	if _, err := e.Track(999, 0); err != ErrUnknownRide {
		t.Fatalf("err = %v, want ErrUnknownRide", err)
	}
}

func TestTrackedRideNotMatchedBehindVehicle(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	// Request near the start of the route.
	req := requestAlong(e, r, 0.05, 0.6, 1e6, 600)

	msBefore, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	foundBefore := false
	for _, m := range msBefore {
		if m.Ride == id {
			foundBefore = true
		}
	}
	if !foundBefore {
		t.Skip("start-of-route request did not match; layout-dependent")
	}

	// Drive most of the route, then search again: the early pickup must
	// no longer be offered.
	endETA := r.RouteETA[len(r.RouteETA)-1]
	if _, err := e.Track(id, endETA*0.9); err != nil {
		t.Fatal(err)
	}
	msAfter, err := e.Search(req)
	if err != nil && err != ErrNotServable {
		t.Fatal(err)
	}
	for _, m := range msAfter {
		if m.Ride == id {
			t.Fatal("ride still offered for a pickup point it has passed")
		}
	}
}

func TestTrackAll(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	var lastETA float64
	for i := 0; i < 4; i++ {
		id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: float64(i * 100), DetourLimit: 500})
		if err != nil {
			t.Fatal(err)
		}
		r := e.Ride(id)
		if eta := r.RouteETA[len(r.RouteETA)-1]; eta > lastETA {
			lastETA = eta
		}
	}
	done, err := e.TrackAll(lastETA + 1)
	if err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	if e.NumRides() != 0 {
		t.Fatalf("%d rides left after completion", e.NumRides())
	}
}

func TestCompleteRide(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !e.CompleteRide(id) {
		t.Fatal("CompleteRide returned false")
	}
	if e.CompleteRide(id) {
		t.Fatal("double completion must return false")
	}
	if e.Ride(id) != nil {
		t.Fatal("completed ride still retrievable")
	}
}

func TestBookedRideServesRequestEndToEnd(t *testing.T) {
	// Full lifecycle: create, search, book, then drive the route and
	// confirm the vehicle passes the pickup and drop-off nodes in order.
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req := requestAlong(e, r, 0.3, 0.7, 1e6, 900)
	ms, err := e.Search(req)
	if err != nil || len(ms) == 0 {
		t.Fatalf("search: %v / %d", err, len(ms))
	}
	bk, err := e.Book(ms[0], req)
	if err != nil {
		t.Fatal(err)
	}
	seenPickup, seenDrop := false, false
	for _, n := range r.Route {
		if n == bk.PickupNode {
			seenPickup = true
		}
		if n == bk.DropoffNode && seenPickup {
			seenDrop = true
		}
	}
	if !seenPickup || !seenDrop {
		t.Fatalf("route does not visit pickup %v then drop-off %v", bk.PickupNode, bk.DropoffNode)
	}
	if bk.PickupETA > bk.DropoffETA {
		t.Fatalf("pickup ETA %v after drop-off ETA %v", bk.PickupETA, bk.DropoffETA)
	}
	if bk.WalkSource+bk.WalkDest > req.WalkLimit+1e-9 {
		t.Fatal("booking walk exceeds request limit")
	}
}

func TestConcurrentSearchesDuringMutations(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	for i := 0; i < 10; i++ {
		if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: float64(i * 60), DetourLimit: 1500}); err != nil {
			t.Fatal(err)
		}
	}
	r := e.Ride(1)
	req := requestAlong(e, r, 0.2, 0.8, 1e6, 900)

	done := make(chan error, 16)
	for w := 0; w < 8; w++ {
		go func() {
			var err error
			for i := 0; i < 50; i++ {
				if _, serr := e.Search(req); serr != nil && serr != ErrNotServable {
					err = serr
					break
				}
			}
			done <- err
		}()
	}
	for w := 0; w < 8; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 10; i++ {
				if _, cerr := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: float64(w*1000 + i), DetourLimit: 1000}); cerr != nil {
					err = cerr
					break
				}
			}
			done <- err
		}(w)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineWithALTPathsIdenticalBehavior(t *testing.T) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plainCfg := DefaultConfig()
	plainCfg.Router = RouterAStar
	plain, err := NewEngine(d, plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine(d, DefaultConfig()) // Router "" is ALT
	if err != nil {
		t.Fatal(err)
	}
	src, dst := farPoints(t, plain)
	idP, err := plain.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	idF, err := fast.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	rp, rf := plain.Ride(idP), fast.Ride(idF)
	if len(rp.Route) != len(rf.Route) {
		t.Fatalf("ALT route has %d nodes, plain %d", len(rf.Route), len(rp.Route))
	}
	lp, _ := city.Graph.PathLength(rp.Route)
	lf, _ := city.Graph.PathLength(rf.Route)
	if math.Abs(lp-lf) > 1e-6 {
		t.Fatalf("ALT route length %v, plain %v", lf, lp)
	}
	req := requestAlong(plain, rp, 0.3, 0.7, 1e6, 900)
	mp, _ := plain.Search(req)
	mf, _ := fast.Search(req)
	if len(mp) != len(mf) {
		t.Fatalf("match counts differ: %d vs %d", len(mp), len(mf))
	}
	if len(mp) > 0 {
		bp, errP := plain.Book(mp[0], req)
		bf, errF := fast.Book(mf[0], req)
		if (errP == nil) != (errF == nil) {
			t.Fatalf("booking outcomes differ: %v vs %v", errP, errF)
		}
		if errP == nil && math.Abs(bp.DetourActual-bf.DetourActual) > 1e-6 {
			t.Fatalf("booking detours differ: %v vs %v", bp.DetourActual, bf.DetourActual)
		}
	}
}

func TestCongestionProfileSlowsPeakRides(t *testing.T) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.UseCongestionProfile = true
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := farPoints(t, e)

	duration := func(departure float64) float64 {
		id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: departure})
		if err != nil {
			t.Fatal(err)
		}
		r := e.Ride(id)
		dur := r.RouteETA[len(r.RouteETA)-1] - r.RouteETA[0]
		e.CompleteRide(id)
		return dur
	}
	night := duration(3 * 3600)    // 3am: free flow
	amPeak := duration(8.5 * 3600) // 8:30am: rush hour
	if amPeak < night*1.3 {
		t.Fatalf("peak ride %.0fs not meaningfully slower than night ride %.0fs", amPeak, night)
	}
	// Without the profile, departure time does not matter.
	plain, err := NewEngine(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e2dur := func(dep float64) float64 {
		id, _ := plain.CreateRide(RideOffer{Source: src, Dest: dst, Departure: dep})
		r := plain.Ride(id)
		dur := r.RouteETA[len(r.RouteETA)-1] - r.RouteETA[0]
		plain.CompleteRide(id)
		return dur
	}
	if math.Abs(e2dur(3*3600)-e2dur(8.5*3600)) > 1e-6 {
		t.Fatal("free-flow engine must be time-invariant")
	}
}
