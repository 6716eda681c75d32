package core

import (
	"context"
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
	oracleCfg := DefaultConfig()
	oracleCfg.Router = RouterAStar
	oracle, err := NewEngine(d, oracleCfg)
	if err != nil {
		t.Fatal(err)
	}
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

// TestSpliceSlicedLegsAreShortest checks spliceRoute against its
// definition on rides that already carry bookings: for pickups and
// drop-offs on the old segment (in order and reversed), at its via nodes
// and anywhere else, the spliced route is exactly as long as one built
// from plain-A* searches for every leg, the via-points keep their order
// and sit where RouteIdx says, and the count returned is of the legs that
// were neither empty nor a stretch of the old segment.
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
	var spliced, sliced int
	for round := 0; round < 4; round++ {
		r := e.Ride(id) // 2, 4, 6, 8 via-points
		nSeg := len(r.Via) - 1
		for trial := 0; trial < 150; trial++ {
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

			route, via, runs, err := e.spliceRoute(context.Background(), f, r, sSeg, dSeg, pu, do)
			if err != nil {
				t.Fatal(err)
			}
			spliced++

			// The legs, and the old route between and around them.
			s1, s2 := r.Via[sSeg], r.Via[sSeg+1]
			d1, d2 := r.Via[dSeg], r.Via[dSeg+1]
			oldS := r.Route[s1.RouteIdx : s2.RouteIdx+1]
			oldD := r.Route[d1.RouteIdx : d2.RouteIdx+1]
			type leg struct {
				a, b roadnet.NodeID
				old  []roadnet.NodeID
			}
			legs := []leg{{s1.Node, pu, oldS}, {pu, do, oldS}, {do, s2.Node, oldS}}
			kept := [][]roadnet.NodeID{r.Route[:s1.RouteIdx+1], r.Route[s2.RouteIdx:]}
			if sSeg != dSeg {
				legs = []leg{{s1.Node, pu, oldS}, {pu, s2.Node, oldS}, {d1.Node, do, oldD}, {do, d2.Node, oldD}}
				kept = [][]roadnet.NodeID{r.Route[:s1.RouteIdx+1], r.Route[s2.RouteIdx : d1.RouteIdx+1], r.Route[d2.RouteIdx:]}
			}
			want, wantRuns := 0.0, 0
			for _, l := range legs {
				want += oracle.ShortestPath(l.a, l.b).Dist
				if l.a != l.b && !onSegment(l.old, l.a, l.b) {
					wantRuns++
				}
			}
			for _, k := range kept {
				kl, err := g.PathLength(k)
				if err != nil {
					t.Fatal(err)
				}
				want += kl
			}
			got, err := g.PathLength(route)
			if err != nil {
				t.Fatalf("spliced route is not a path: %v", err)
			}
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("round %d trial %d (segs %d,%d pu %d do %d): spliced route %.9f m, four A* searches %.9f m", round, trial, sSeg, dSeg, pu, do, got, want)
			}
			if runs != wantRuns || runs > len(legs) {
				t.Fatalf("round %d trial %d: %d searches, want %d of %d legs", round, trial, runs, wantRuns, len(legs))
			}
			sliced += len(legs) - runs

			wantVia := slices.Clone(r.Via[:sSeg+1])
			wantVia = append(wantVia, index.ViaPoint{Node: pu, Kind: index.ViaPickup})
			wantVia = append(wantVia, r.Via[sSeg+1:dSeg+1]...)
			wantVia = append(wantVia, index.ViaPoint{Node: do, Kind: index.ViaDropoff})
			wantVia = append(wantVia, r.Via[dSeg+1:]...)
			if len(via) != len(wantVia) || via[0].RouteIdx != 0 || via[len(via)-1].RouteIdx != len(route)-1 {
				t.Fatalf("round %d trial %d: via-points %+v over a %d-node route", round, trial, via, len(route))
			}
			for i, v := range via {
				if v.Node != wantVia[i].Node || v.Kind != wantVia[i].Kind {
					t.Fatalf("round %d trial %d: via %d is %+v, want node %d kind %v", round, trial, i, v, wantVia[i].Node, wantVia[i].Kind)
				}
				if route[v.RouteIdx] != v.Node || (i > 0 && v.RouteIdx < via[i-1].RouteIdx) {
					t.Fatalf("round %d trial %d: via %d (%+v) misplaced or out of order", round, trial, i, v)
				}
			}
		}

		// One more real booking, so that the next round splices a ride with
		// two more via-points.
		for try := 0; ; try++ {
			a := 0.05 + rng.Float64()*0.6
			req := requestAlong(e, r, a, a+0.1+rng.Float64()*0.25, 1e6, 1000)
			if ms, _ := e.Search(req); len(ms) > 0 {
				if _, err := e.Book(ms[0], req); err == nil {
					break
				}
			}
			if try == 50 {
				t.Fatal("could not add a booking to the ride")
			}
		}
	}
	t.Logf("%d splices, %d legs taken from the old segment or empty", spliced, sliced)
	if sliced < spliced {
		t.Fatal("too few legs were sliced for the test to mean anything")
	}
}
