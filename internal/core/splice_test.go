package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xar/internal/discretize"
	"xar/internal/index"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
	"xar/internal/workload"
)

// TestReplayIdenticalUnderAStarAndDefault drives the same 1 500-trip
// history — track, search, book the best match or else offer a ride, hand
// some bookings back — through an engine on the plain-A* oracle and one
// on the default router, and requires the two to agree search by search
// and booking by booking (detours and path counts included), and so on
// the match rate. The default engine also carries a registry: what
// Metrics.ShortestPaths and Booking.ShortestPathRuns count must be what
// xar_route_queries_total counts, queries that ran.
func TestReplayIdenticalUnderAStarAndDefault(t *testing.T) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := astarEngine(t, d)
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Telemetry = reg
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Router() != RouterALT {
		t.Fatalf("default router is %q", e.Router())
	}

	wcfg := workload.DefaultConfig(1500, 23)
	wcfg.StartHour, wcfg.EndHour = 8, 10
	trips, err := workload.Generate(city, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var booked []Booking
	var created, bookRuns, cancelled, shortOfThree int
	lastTrack := 0.0
	for i, trip := range trips {
		now := trip.RequestTime
		if now-lastTrack >= 120 {
			if _, err := oracle.TrackAll(now); err != nil {
				t.Fatal(err)
			}
			if _, err := e.TrackAll(now); err != nil {
				t.Fatal(err)
			}
			lastTrack = now
		}
		if i%10 == 0 && len(booked) > 0 {
			bk := booked[len(booked)-1]
			booked = booked[:len(booked)-1]
			errO := oracle.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode)
			errE := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode)
			if errO != errE {
				t.Fatalf("trip %d: cancel diverged: %v vs %v", i, errO, errE)
			}
			if errE == nil {
				cancelled++
			}
		}
		req := Request{
			Source: trip.Pickup, Dest: trip.Dropoff,
			EarliestDeparture: now, LatestDeparture: now + 900,
			WalkLimit: 1000,
		}
		want, errO := oracle.Search(req)
		got, errE := e.Search(req)
		if errO != errE || !slices.Equal(got, want) {
			t.Fatalf("trip %d: searches diverged (%v vs %v)\n got  %+v\n want %+v", i, errE, errO, got, want)
		}
		if errE != nil {
			continue
		}
		if len(got) == 0 {
			offer := RideOffer{Source: trip.Pickup, Dest: trip.Dropoff, Departure: now + 120}
			idO, errO := oracle.CreateRide(offer)
			idE, errE := e.CreateRide(offer)
			if idO != idE || (errO == nil) != (errE == nil) {
				t.Fatalf("trip %d: creates diverged: %d %v vs %d %v", i, idE, errE, idO, errO)
			}
			if errE == nil {
				created++
			}
			continue
		}
		bkO, errO := oracle.Book(want[0], req)
		bkE, errE := e.Book(got[0], req)
		if errO != errE || bkO != bkE {
			t.Fatalf("trip %d: bookings diverged (%v vs %v)\n got  %+v\n want %+v", i, errE, errO, bkE, bkO)
		}
		if errE != nil {
			continue
		}
		booked = append(booked, bkE)
		bookRuns += bkE.ShortestPathRuns
		if bkE.ShortestPathRuns < 3 {
			shortOfThree++
		}
	}
	mo, me := oracle.Metrics(), e.Metrics()
	if mo.MatchRate() != me.MatchRate() || mo.Bookings != me.Bookings || mo.ShortestPaths != me.ShortestPaths {
		t.Fatalf("metrics diverged:\n astar   %+v\n default %+v", mo, me)
	}
	queries := reg.Counter("xar_route_queries_total",
		"Shortest-path queries served, by routing algorithm.",
		telemetry.L("algo", RouterALT)).Value()
	if me.ShortestPaths != queries {
		t.Fatalf("Metrics.ShortestPaths = %d, xar_route_queries_total{algo=alt} = %d", me.ShortestPaths, queries)
	}
	t.Logf("%d creates, %d bookings running %d searches (%d of them fewer than three), %d cancels; %d queries in all",
		created, me.Bookings, bookRuns, shortOfThree, cancelled, queries)
	if me.Bookings < 200 || cancelled < 20 || shortOfThree == 0 {
		t.Fatal("the history books, cancels or slices too little to mean anything")
	}
}

// TestSpliceSlicedLegsAreShortest checks stitch against its definition on
// a ride whose schedule real bookings and cancellations grow and shrink:
// for booking edits (pickups and drop-offs on the old segment, in order
// and reversed, at its via nodes and anywhere else) and for cancel edits
// (every booking the ride carries), the stitched route is exactly as long
// as one built from a plain-A* search for every leg that changed plus the
// kept segments, which come out node for node; the via-points keep their
// order and sit where RouteIdx says; the count returned is of the legs
// that were neither empty nor a stretch of the one old segment they
// replace — at most four a booking, two a cancellation; and the route is
// allocated at its exact length.
func TestSpliceSlicedLegsAreShortest(t *testing.T) {
	e := newTestEngine(t)
	g := e.disc.City().Graph
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, Seats: 8, DetourLimit: 8000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	oracle := roadnet.NewSearcher(g)
	f := e.finder()
	defer e.release(f)

	onSegment := func(seg []roadnet.NodeID, a, b roadnet.NodeID) bool {
		i := slices.Index(seg, a)
		return i >= 0 && slices.Index(seg[i:], b) > 0
	}
	var stitched, sliced, kept int
	// check stitches r through next and holds the result to the definition.
	check := func(what string, r *index.Ride, next []viaEdit, maxRuns int) {
		t.Helper()
		route, via, runs, err := e.stitch(context.Background(), f, r, next, nil)
		if err != nil {
			t.Fatal(err)
		}
		stitched++
		if len(route) != cap(route) {
			t.Fatalf("%s: route of %d nodes has capacity %d", what, len(route), cap(route))
		}
		if len(via) != len(next) || via[0].RouteIdx != 0 || via[len(via)-1].RouteIdx != len(route)-1 {
			t.Fatalf("%s: via-points %+v over a %d-node route", what, via, len(route))
		}
		for i, v := range via {
			if v.Node != next[i].Node || v.Kind != next[i].Kind {
				t.Fatalf("%s: via %d is %+v, want node %d kind %v", what, i, v, next[i].Node, next[i].Kind)
			}
			if route[v.RouteIdx] != v.Node || (i > 0 && v.RouteIdx < via[i-1].RouteIdx) {
				t.Fatalf("%s: via %d (%+v) misplaced or out of order", what, i, v)
			}
		}
		oldSeg := func(lo, hi int) []roadnet.NodeID { return r.Route[r.Via[lo].RouteIdx : r.Via[hi].RouteIdx+1] }
		want, wantRuns, legs := 0.0, 0, 0
		for i := 0; i+1 < len(next); i++ {
			a, b := next[i], next[i+1]
			if a.was >= 0 && b.was == a.was+1 {
				// Both ends stay neighbours: the old segment, node for node.
				if !slices.Equal(route[via[i].RouteIdx:via[i+1].RouteIdx+1], oldSeg(a.was, b.was)) {
					t.Fatalf("%s: kept segment %d→%d was not copied", what, a.was, b.was)
				}
				kl, err := g.PathLength(oldSeg(a.was, b.was))
				if err != nil {
					t.Fatal(err)
				}
				want += kl
				kept++
				continue
			}
			legs++
			want += oracle.ShortestPath(a.Node, b.Node).Dist
			lo, hi := i, i+1
			for next[lo].was < 0 {
				lo--
			}
			for next[hi].was < 0 {
				hi++
			}
			lo, hi = next[lo].was, next[hi].was
			if a.Node != b.Node && !(hi == lo+1 && onSegment(oldSeg(lo, hi), a.Node, b.Node)) {
				wantRuns++
			}
		}
		got, err := g.PathLength(route)
		if err != nil {
			t.Fatalf("%s: stitched route is not a path: %v", what, err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("%s: stitched route %.9f m, plain A* for its %d changed legs %.9f m", what, got, legs, want)
		}
		if runs != wantRuns || runs > maxRuns || legs > maxRuns {
			t.Fatalf("%s: %d searches for %d changed legs, want %d (at most %d)", what, runs, legs, wantRuns, maxRuns)
		}
		sliced += legs - runs
	}

	var booked []Booking
	for round := 0; round < 8; round++ {
		r := e.Ride(id)
		nSeg := len(r.Via) - 1
		for trial := 0; trial < 75; trial++ {
			sSeg := rng.Intn(nSeg)
			dSeg := sSeg + rng.Intn(nSeg-sSeg)
			pick := func(seg int) roadnet.NodeID {
				old := r.Route[r.Via[seg].RouteIdx : r.Via[seg+1].RouteIdx+1]
				if rng.Intn(3) == 0 {
					return roadnet.NodeID(rng.Intn(g.NumNodes()))
				}
				return old[rng.Intn(len(old))] // ends included: empty legs
			}
			pu, do := pick(sSeg), pick(dSeg)
			var next []viaEdit
			for i, v := range r.Via {
				next = append(next, viaEdit{v, i})
				if i == sSeg {
					next = append(next, viaEdit{index.ViaPoint{Node: pu, Kind: index.ViaPickup}, -1})
				}
				if i == dSeg {
					next = append(next, viaEdit{index.ViaPoint{Node: do, Kind: index.ViaDropoff}, -1})
				}
			}
			check(fmt.Sprintf("round %d trial %d (book segs %d,%d pu %d do %d)", round, trial, sSeg, dSeg, pu, do), r, next, 4)
		}
		for _, bk := range booked {
			puIdx, doIdx := -1, -1
			for i, v := range r.Via {
				if puIdx < 0 && v.Kind == index.ViaPickup && v.Node == bk.PickupNode {
					puIdx = i
				} else if puIdx >= 0 && doIdx < 0 && v.Kind == index.ViaDropoff && v.Node == bk.DropoffNode {
					doIdx = i
				}
			}
			var next []viaEdit
			for i, v := range r.Via {
				if doIdx >= 0 && i != puIdx && i != doIdx {
					next = append(next, viaEdit{v, i})
				}
			}
			if len(next) != len(r.Via)-2 {
				t.Fatalf("round %d: booking %+v is not on the ride", round, bk)
			}
			check(fmt.Sprintf("round %d (cancel pu %d do %d)", round, bk.PickupNode, bk.DropoffNode), r, next, 2)
		}

		// Move the real ride on: mostly one more booking, sometimes a
		// cancellation, so that the next round edits a schedule that a mixed
		// sequence of both has built.
		if len(booked) > 1 && rng.Intn(3) == 0 {
			k := rng.Intn(len(booked))
			if err := e.CancelBooking(id, booked[k].PickupNode, booked[k].DropoffNode); err != nil {
				t.Fatal(err)
			}
			booked = slices.Delete(booked, k, k+1)
			continue
		}
		for try := 0; ; try++ {
			a := 0.05 + rng.Float64()*0.6
			req := requestAlong(e, r, a, a+0.1+rng.Float64()*0.25, 1e6, 1000)
			if ms, _ := e.Search(req); len(ms) > 0 {
				if bk, err := e.Book(ms[0], req); err == nil {
					booked = append(booked, bk)
					break
				}
			}
			if try == 50 {
				t.Fatal("could not add a booking to the ride")
			}
		}
	}
	t.Logf("%d stitches, %d changed legs taken from the old segment or empty, %d kept segments copied", stitched, sliced, kept)
	if sliced < stitched/2 || kept < stitched {
		t.Fatal("too few legs were sliced or kept for the test to mean anything")
	}
}
