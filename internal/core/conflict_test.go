package core

import (
	"slices"
	"sync"
	"testing"

	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// hookFinder runs before ahead of every shortest path: a deterministic
// stand-in for "another writer got to the ride while this one was
// searching". It is called with no lock held, or it could not write.
type hookFinder struct {
	pathFinder
	before func()
}

func (h hookFinder) ShortestPath(a, b roadnet.NodeID) roadnet.SPResult {
	h.before()
	return h.pathFinder.ShortestPath(a, b)
}

// TestOptimisticConflicts drives the snapshot → stitch → commit-iff-Rev
// protocol through its conflict branch, for a booking and for a
// cancellation: the engine's finder pool is swapped for one whose searches
// first write to the very ride being written. A Track that advances the
// ride during the first search costs one counted retry, after which the
// write commits exactly what an uncontended engine commits; a writer that
// gets in during every search makes bookMaxAttempts attempts lose, and
// the write returns ErrNoLongerFeasible with the ride as it was.
func TestOptimisticConflicts(t *testing.T) {
	calm, _, _ := tracedEngine(t, nil)
	e, reg, tracer := tracedEngine(t, func(cfg *Config) { cfg.Journal = journal.New(journal.Config{}) })
	var id index.RideID
	var interfere func() // what the next search does first; nil: nothing
	alt := e.finders.New
	e.finders = &sync.Pool{New: func() any {
		return hookFinder{alt().(pathFinder), func() {
			if interfere != nil {
				interfere()
			}
		}}
	}}
	advanceOnce := func() {
		interfere = nil
		r := e.Ride(id)
		if _, err := e.Track(id, r.RouteETA[r.Progress+1]); err != nil {
			t.Error(err)
		}
	}
	// Re-registering is what every commit ends with: it bumps the revision
	// and leaves the ride's state alone, so it can go on for ever.
	touchAlways := func() {
		e.ix.Lock()
		defer e.ix.Unlock()
		if err := e.ix.Ix.Reregister(e.ix.Ix.Ride(id)); err != nil {
			t.Error(err)
		}
	}

	// The same ride on both engines, with a first rider early on it, so
	// that the booking under test goes into a segment ahead of the vehicle.
	src, dst := farPoints(t, e)
	offer := RideOffer{Source: src, Dest: dst, Departure: 1000, Seats: 4, DetourLimit: 4000}
	id, err := e.CreateRide(offer)
	if err != nil {
		t.Fatal(err)
	}
	calmID, err := calm.CreateRide(offer)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []*Engine{e, calm} {
		req, ms := mustSearchAlong(t, eng, eng.Ride(1), 0.1, 0.3, 3600, 900)
		if _, err := eng.Book(ms[0], req); err != nil {
			t.Fatal(err)
		}
	}
	// Picked up one block off the route, late on it: the uncontended engine
	// books the first such request that needs a search.
	var req Request
	var m Match
	var want Booking
	g, route := e.disc.City().Graph, calm.Ride(calmID).Route
	for i := len(route) / 2; want.ShortestPathRuns == 0; i++ {
		if i == len(route)-2 {
			t.Fatal("no booking off the route ran a search")
		}
		for arc, hi := g.Out(route[i]); arc < hi; arc++ {
			out := g.Arc(arc)
			if slices.Contains(route, out.To) {
				continue
			}
			req = Request{Source: g.Point(out.To), Dest: g.Point(route[len(route)-2]), LatestDeparture: 7200, WalkLimit: 300}
			ms, _ := calm.Search(req)
			if len(ms) == 0 {
				continue
			}
			if want, err = calm.Book(ms[0], req); err == nil && want.ShortestPathRuns > 0 {
				m = ms[0]
				break
			}
			if err == nil {
				if err := calm.CancelBooking(calmID, want.PickupNode, want.DropoffNode); err != nil {
					t.Fatal(err)
				}
			}
			want = Booking{}
		}
	}

	retries := func() uint64 { return e.Metrics().BookConflictRetries }
	same := func(a, b *index.Ride) bool {
		return slices.Equal(a.Route, b.Route) && slices.Equal(a.RouteETA, b.RouteETA) && slices.Equal(a.Via, b.Via) &&
			a.SeatsAvail == b.SeatsAvail && a.DetourLimit == b.DetourLimit
	}
	spanRetries := func(op string) any {
		t.Helper()
		tds := tracer.Store().List(telemetry.TraceFilter{Op: op})
		if len(tds) == 0 {
			t.Fatalf("no %s trace", op)
		}
		return tds[0].Doc().Tree[0].Attrs["conflict_retries"]
	}
	// refused runs write against a ride that changes during every search.
	refused := func(what string, wantRetries uint64, write func() error) {
		t.Helper()
		before := e.Ride(id)
		interfere = touchAlways
		err := write()
		interfere = nil
		if err != ErrNoLongerFeasible || retries() != wantRetries {
			t.Fatalf("%s that lost every commit: %v after %d retries in all, want ErrNoLongerFeasible after %d", what, err, retries(), wantRetries)
		}
		if after := e.Ride(id); !same(before, after) || after.Progress != before.Progress {
			t.Fatalf("a refused %s changed the ride:\n before %+v\n after  %+v", what, before, after)
		}
	}
	// contended runs write against a ride that advances during its first search.
	contended := func(what, op string, wantRetries uint64, write func() error) {
		t.Helper()
		interfere = advanceOnce
		if err := write(); err != nil {
			t.Fatal(err)
		}
		if interfere != nil {
			t.Fatalf("the %s ran no search", what)
		}
		if got, want := e.Ride(id), calm.Ride(calmID); !same(got, want) {
			t.Fatalf("%s committed after a conflict differs from the uncontended one:\n got  %+v\n want %+v", what, got, want)
		}
		if retries() != wantRetries || spanRetries(op) != float64(1) {
			t.Fatalf("%s: %d retries counted in all, span says %v; want %d and 1", what, retries(), spanRetries(op), wantRetries)
		}
	}

	m.Ride = id
	var got Booking
	book := func() (err error) { got, err = e.Book(m, req); return err }
	refused("booking", bookMaxAttempts, book)
	contended("booking", "book", bookMaxAttempts+1, book)
	if want.Ride = id; got != want {
		t.Fatalf("booking committed after a conflict:\n got  %+v\n want %+v", got, want)
	}

	if err := calm.CancelBooking(calmID, want.PickupNode, want.DropoffNode); err != nil {
		t.Fatal(err)
	}
	cancel := func() error { return e.CancelBooking(id, got.PickupNode, got.DropoffNode) }
	refused("cancellation", 2*bookMaxAttempts+1, cancel)
	contended("cancellation", "cancel", 2*bookMaxAttempts+2, cancel)

	// The counter's other faces: Prometheus and the journal.
	prom := reg.Counter("xar_book_conflict_retries_total",
		"Optimistic booking commits retried because the ride mutated between snapshot and commit.", nil).Value()
	journaled := 0
	for _, ev := range e.Journal().Timeline(int64(id)) {
		if ev.Type == journal.BookConflictRetried {
			journaled++
		}
	}
	if prom != retries() || uint64(journaled) != retries() {
		t.Fatalf("xar_book_conflict_retries_total %d, journal %d, Metrics %d", prom, journaled, retries())
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSharesRouteAcrossConflictingCommit: a write's snapshot
// shares the ride's Route and Via rather than copying them, and still
// reads them as they were after another write commits on the same ride,
// since a commit replaces both and writes into neither. The engine's
// finder pool is swapped for one whose first search, inside a booking
// that runs one, takes a second snapshot of the same revision — the same
// arrays the booking computes against — and books another rider on the
// ride from a second goroutine while it reads them; the booking then
// loses its commit and retries.
func TestSnapshotSharesRouteAcrossConflictingCommit(t *testing.T) {
	e := newTestEngine(t)
	var hook func() // what the next search does first, once; nil: nothing
	alt := e.finders.New
	e.finders = &sync.Pool{New: func() any {
		return hookFinder{alt().(pathFinder), func() {
			if h := hook; h != nil {
				hook = nil
				h()
			}
		}}
	}}
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, Seats: 4, DetourLimit: 4000})
	if err != nil {
		t.Fatal(err)
	}
	otherReq, otherMs := mustSearchAlong(t, e, e.Ride(id), 0.1, 0.3, 3600, 900)

	fired := false
	conflict := func() {
		fired = true
		snap, err := e.snapshot(id, func(*index.Ride) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		e.ix.RLock()
		r := e.ix.Ix.Ride(id)
		shared := &r.Route[0] == &snap.Route[0] && &r.Via[0] == &snap.Via[0]
		e.ix.RUnlock()
		if !shared {
			t.Error("the snapshot copied the ride's route or schedule")
		}
		wantRoute, wantVia := slices.Clone(snap.Route), slices.Clone(snap.Via)
		unchanged := func() bool { return slices.Equal(snap.Route, wantRoute) && slices.Equal(snap.Via, wantVia) }
		done := make(chan error)
		go func() {
			_, err := e.Book(otherMs[0], otherReq)
			done <- err
		}()
		for reading := true; reading; {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("the conflicting booking: %v", err)
				}
				reading = false
			default:
				if !unchanged() {
					t.Fatal("a snapshot changed while another write committed")
				}
			}
		}
		if !unchanged() {
			t.Fatal("a snapshot does not read the route and schedule it was taken of after another write committed")
		}
		if got := e.Ride(id); len(got.Via) != len(wantVia)+2 || slices.Equal(got.Route, wantRoute) && slices.Equal(got.Via, wantVia) {
			t.Fatalf("the conflicting booking did not replace the ride's schedule: %d via-points, snapshot %d", len(got.Via), len(wantVia))
		}
	}

	// A rider picked up one block off the route: the first whose booking
	// runs a search meets the conflict in it.
	g, route := e.disc.City().Graph, e.Ride(id).Route
	for i := len(route) / 2; !fired; i++ {
		if i == len(route)-2 {
			t.Fatal("no booking off the route ran a search")
		}
		for arc, hi := g.Out(route[i]); arc < hi; arc++ {
			out := g.Arc(arc)
			if slices.Contains(route, out.To) {
				continue
			}
			req := Request{Source: g.Point(out.To), Dest: g.Point(route[len(route)-2]), LatestDeparture: 7200, WalkLimit: 300}
			ms, _ := e.Search(req)
			if len(ms) == 0 {
				continue
			}
			hook = conflict
			bk, err := e.Book(ms[0], req)
			hook = nil
			if fired {
				t.Logf("the booking after the conflict: %v", err)
				break
			}
			if err == nil {
				if err := e.CancelBooking(id, bk.PickupNode, bk.DropoffNode); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if n := e.Metrics().BookConflictRetries; n != 1 {
		t.Fatalf("%d conflict retries, want the one the conflicting commit caused", n)
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
