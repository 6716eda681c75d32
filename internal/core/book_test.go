package core

import (
	"math"
	"math/rand"
	"testing"

	"xar/internal/discretize"
	"xar/internal/index"
	"xar/internal/workload"
)

// validateRide checks full structural consistency of a ride after
// booking operations: route is a connected path, via-points sit at their
// claimed indices in order, pickups precede their drop-offs, ETAs are
// non-decreasing.
func validateRide(t *testing.T, e *Engine, r *index.Ride) {
	t.Helper()
	if _, err := e.disc.City().Graph.PathLength(r.Route); err != nil {
		t.Fatalf("route disconnected: %v", err)
	}
	if r.Via[0].RouteIdx != 0 {
		t.Fatalf("first via at route index %d", r.Via[0].RouteIdx)
	}
	if r.Via[len(r.Via)-1].RouteIdx != len(r.Route)-1 {
		t.Fatalf("last via at %d, route ends at %d", r.Via[len(r.Via)-1].RouteIdx, len(r.Route)-1)
	}
	for i, v := range r.Via {
		if r.Route[v.RouteIdx] != v.Node {
			t.Fatalf("via %d: node %d not at route index %d", i, v.Node, v.RouteIdx)
		}
		if i > 0 && v.RouteIdx < r.Via[i-1].RouteIdx {
			t.Fatalf("via %d out of order", i)
		}
	}
	for i := 1; i < len(r.RouteETA); i++ {
		if r.RouteETA[i] < r.RouteETA[i-1] {
			t.Fatalf("ETA decreased at route index %d", i)
		}
	}
	if r.Via[0].Kind != index.ViaSource || r.Via[len(r.Via)-1].Kind != index.ViaDest {
		t.Fatal("endpoints lost their source/dest kinds")
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleBookingsAccumulate(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, Seats: 8, DetourLimit: 6000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	rng := rand.New(rand.NewSource(3))
	booked := 0
	for i := 0; i < 12 && booked < 5; i++ {
		a := 0.1 + rng.Float64()*0.5
		b := a + 0.15 + rng.Float64()*(0.85-a-0.15)
		req := requestAlong(e, r, a, b, 1e6, 1000)
		ms, err := e.Search(req)
		if err != nil || len(ms) == 0 {
			continue
		}
		var m *Match
		for j := range ms {
			if ms[j].Ride == id {
				m = &ms[j]
				break
			}
		}
		if m == nil {
			continue
		}
		if _, err := e.Book(*m, req); err != nil {
			continue
		}
		booked++
		r = e.Ride(id) // re-fetch: snapshots don't observe bookings
		validateRide(t, e, r)
	}
	if booked < 2 {
		t.Fatalf("only %d of 5 bookings landed on the seeded world", booked)
	}
	if len(r.Via) != 2+2*booked {
		t.Fatalf("via count %d after %d bookings", len(r.Via), booked)
	}
	// Each booked rider's pickup precedes their drop-off in route order
	// (kinds alternate correctly because via-points are route-ordered).
	pickups, drops := 0, 0
	for _, v := range r.Via {
		switch v.Kind {
		case index.ViaPickup:
			pickups++
		case index.ViaDropoff:
			drops++
		}
	}
	if pickups != booked || drops != booked {
		t.Fatalf("pickups=%d drops=%d, want %d each", pickups, drops, booked)
	}
}

func TestBookingDetourAccounting(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, Seats: 8, DetourLimit: 5000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	base := r.BaseRouteLen

	var totalDetour float64
	for i := 0; i < 3; i++ {
		req := requestAlong(e, r, 0.2+float64(i)*0.1, 0.7, 1e6, 1000)
		ms, err := e.Search(req)
		if err != nil || len(ms) == 0 {
			break
		}
		bk, err := e.Book(ms[0], req)
		if err != nil {
			break
		}
		totalDetour += bk.DetourActual
		r = e.Ride(id) // re-fetch: snapshots don't observe bookings
	}
	routeLen, err := e.disc.City().Graph.PathLength(r.Route)
	if err != nil {
		t.Fatal(err)
	}
	// Cumulative booked detours equal the total route growth.
	if math.Abs((routeLen-base)-totalDetour) > 1 {
		t.Fatalf("route grew %.1f but booked detours sum to %.1f", routeLen-base, totalDetour)
	}
	// Remaining budget = initial − spent.
	if math.Abs(r.DetourLimit-(r.DetourLimitInitial-totalDetour)) > 1 {
		t.Fatalf("budget %.1f, want %.1f", r.DetourLimit, r.DetourLimitInitial-totalDetour)
	}
}

func TestBookingSameSegmentTwice(t *testing.T) {
	// Two bookings landing in the same original segment: the second
	// splice happens on the already-split route.
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, Seats: 8, DetourLimit: 8000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	for i := 0; i < 2; i++ {
		req, ms := mustSearchAlong(t, e, r, 0.4, 0.6, 1e6, 1000)
		if _, err := e.Book(ms[0], req); err != nil {
			t.Fatalf("booking %d failed: %v", i, err)
		}
		validateRide(t, e, r)
	}
}

func TestBookingNarrowWindowRespectED(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 5000, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req, ms := mustSearchAlong(t, e, r, 0.3, 0.7, 1e6, 900)
	bk, err := e.Book(ms[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if bk.PickupETA < 5000 {
		t.Fatalf("pickup ETA %.0f before the ride departs at 5000", bk.PickupETA)
	}
	if bk.DropoffETA < bk.PickupETA {
		t.Fatalf("drop-off %.0f before pickup %.0f", bk.DropoffETA, bk.PickupETA)
	}
}

func TestBookingRefusedWhenVehiclePassedSegment(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req, ms := mustSearchAlong(t, e, r, 0.1, 0.5, 1e6, 900)
	m := ms[0]
	// Drive the vehicle to 90% of the route, then book the stale match.
	end := r.RouteETA[len(r.RouteETA)-1]
	if _, err := e.Track(id, end*0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Book(m, req); err == nil {
		// Booking may legally succeed if a valid later support exists;
		// but the resulting ride must still be structurally sound.
		validateRide(t, e, r)
	}
}

// exactLandmarks is a landmark table of discretize.LandmarkTable's, the
// exact float32 distances the region keeps only to a unit.
type exactLandmarks [][]float32

func (t exactLandmarks) LandmarkDist(a, b int) float64 { return float64(t[a][b]) }

// TestLandmarkTableResolution holds the region's resident landmark table
// to its unit, the longest exact entry / 65 535, against the exact
// kernel's table: every entry within unit/2, 0 on the diagonal, and
// every booking of a replay-shaped history estimated by a chain within
// three units of the same chain read from the exact table. The chain is
// recomputed from a snapshot taken before the booking and must first give
// the booking's own estimate.
func TestLandmarkTableResolution(t *testing.T) {
	e := newTestEngine(t)
	exact, longest, err := discretize.LandmarkTable(e.disc.City().Graph, e.disc.Landmarks)
	if err != nil {
		t.Fatal(err)
	}
	unit := float64(longest) / math.MaxUint16
	tol := 1e-9 * float64(longest) // float64 rounding of the unit's product
	for a, row := range exact {
		for b, v := range row {
			got := e.disc.LandmarkDist(a, b)
			if a == b && got != 0 {
				t.Fatalf("LandmarkDist(%d, %d) = %v, want 0", a, b, got)
			}
			if math.Abs(got-float64(v)) > unit/2+tol {
				t.Fatalf("LandmarkDist(%d, %d) = %v, exact %v: off by more than unit/2 = %v", a, b, got, v, unit/2)
			}
		}
	}

	wcfg := workload.DefaultConfig(2000, 17)
	wcfg.StartHour, wcfg.EndHour = 8, 10
	trips, err := workload.Generate(e.disc.City(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	lastTrack, chains, worst := 0.0, 0, 0.0
	for _, trip := range trips {
		now := trip.RequestTime
		if now-lastTrack >= 120 {
			if _, err := e.TrackAll(now); err != nil {
				t.Fatal(err)
			}
			lastTrack = now
		}
		req := Request{
			Source: trip.Pickup, Dest: trip.Dropoff,
			EarliestDeparture: now, LatestDeparture: now + 900,
			WalkLimit: 1000,
		}
		ms, err := e.Search(req)
		if err != nil || len(ms) == 0 {
			_, _ = e.CreateRide(RideOffer{Source: trip.Pickup, Dest: trip.Dropoff, Departure: now + 120})
			continue
		}
		m := ms[0]
		r := e.Ride(m.Ride)
		bk, err := e.Book(m, req)
		if err != nil {
			continue
		}
		p, _ := bestSupportPair(r, e.disc, m.PickupCluster, m.DropoffCluster, 0)
		sSeg, dSeg, fallback := r.RunSeg(p.pickup), r.RunSeg(p.dropoff), p.detour
		resident := e.refineDetourEstimate(e.disc, r, sSeg, dSeg, bk.PickupLandmark, bk.DropoffLandmark, fallback)
		if resident != bk.DetourEstimate {
			t.Fatalf("ride %d: chain from the snapshot %v, booking's estimate %v", m.Ride, resident, bk.DetourEstimate)
		}
		exactChain := e.refineDetourEstimate(exactLandmarks(exact), r, sSeg, dSeg, bk.PickupLandmark, bk.DropoffLandmark, fallback)
		if gap := math.Abs(resident - exactChain); gap > 3*unit+tol {
			t.Fatalf("ride %d: estimate %v, exact chain %v: off by %v > 3 units = %v", m.Ride, resident, exactChain, gap, 3*unit)
		} else {
			worst = max(worst, gap)
		}
		chains++
	}
	t.Logf("unit %.4f m; %d bookings, worst chain gap %.4f m", unit, chains, worst)
	if chains < 200 {
		t.Fatalf("%d bookings: too few to mean anything", chains)
	}
}
