package core

import (
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xar/internal/audit"
	"xar/internal/discretize"
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// concurrentEngine builds an engine for the stress tests.
func concurrentEngine(t testing.TB) *Engine {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	// Tracing on under -race: the span lifecycle (spans ending on every
	// op goroutine, ring-buffer inserts, sealing) is exactly the
	// synchronization the stress test should exercise.
	cfg.Tracer = telemetry.NewTracer(telemetry.TracerConfig{
		SampleRate:    2,
		SlowThreshold: time.Millisecond,
	})
	// Journal on for the same reason: every op goroutine appends into the
	// event rings while others read timelines.
	cfg.Journal = journal.New(journal.Config{})
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConcurrentMixedWorkload is the concurrent analogue of
// failure_test.go: 8+ goroutines hammer one engine with a mix of
// Create/Search/Book/Cancel/Track/Complete while the test asserts the
// engine's invariants hold — seats never negative, bookings only land
// on live rides, cross-structure index invariants intact, and the
// metrics counters mutually consistent. Run it with -race: the locked
// index, pooled searchers and optimistic booking protocol are exactly
// the code paths whose synchronization it exercises.
func TestConcurrentMixedWorkload(t *testing.T) {
	e := concurrentEngine(t)
	src, dst := farPoints(t, e)

	const goroutines = 8
	iters := 120
	if testing.Short() {
		iters = 30
	}

	// Shared live-ride pool the goroutines sample from.
	var poolMu sync.Mutex
	var pool []index.RideID
	pickRide := func(rng *rand.Rand) (index.RideID, bool) {
		poolMu.Lock()
		defer poolMu.Unlock()
		if len(pool) == 0 {
			return 0, false
		}
		return pool[rng.Intn(len(pool))], true
	}

	var violations atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var myBookings []Booking
			for i := 0; i < iters; i++ {
				switch op := rng.Intn(10); {
				case op < 2: // create
					id, err := e.CreateRide(RideOffer{
						Source: src, Dest: dst,
						Departure:   float64(rng.Intn(2000)),
						DetourLimit: 2000 + float64(rng.Intn(2000)),
						Seats:       2 + rng.Intn(3),
					})
					if err == nil {
						poolMu.Lock()
						pool = append(pool, id)
						poolMu.Unlock()
					}
				case op < 6: // search (+ book a found match)
					id, ok := pickRide(rng)
					if !ok {
						continue
					}
					r := e.Ride(id)
					if r == nil {
						continue
					}
					req := requestAlong(e, r, 0.1+rng.Float64()*0.3, 0.6+rng.Float64()*0.3, 3600, 900)
					ms, err := e.Search(req)
					if err != nil || len(ms) == 0 {
						continue
					}
					m := ms[rng.Intn(len(ms))]
					bk, err := e.Book(m, req)
					switch err {
					case nil:
						myBookings = append(myBookings, bk)
					case ErrUnknownRide, ErrRideFull, ErrNoLongerFeasible, ErrDetourExceeded, ErrUnreachable:
						// expected under concurrent mutation
					default:
						t.Errorf("unexpected booking error: %v", err)
						violations.Add(1)
					}
				case op < 7: // cancel one of my bookings
					if len(myBookings) == 0 {
						continue
					}
					bk := myBookings[len(myBookings)-1]
					myBookings = myBookings[:len(myBookings)-1]
					_ = e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode)
				case op < 9: // track by wall clock
					if id, ok := pickRide(rng); ok {
						_, _ = e.Track(id, float64(rng.Intn(4000)))
					}
				default: // complete (rarely: keep the pool populated)
					if rng.Intn(4) == 0 {
						if id, ok := pickRide(rng); ok {
							e.CompleteRide(id)
						}
					}
				}
				// Seats must never go negative on any observable
				// snapshot.
				if id, ok := pickRide(rng); ok {
					if r := e.Ride(id); r != nil && (r.SeatsAvail < 0 || r.SeatsAvail > r.SeatsTotal-1) {
						t.Errorf("ride %d seats out of range: %d/%d", r.ID, r.SeatsAvail, r.SeatsTotal)
						violations.Add(1)
					}
				}
			}
		}(int64(1000 + g))
	}
	wg.Wait()

	if violations.Load() > 0 {
		t.Fatalf("%d invariant violations during the run", violations.Load())
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatalf("index invariants after stress: %v", err)
	}
	m := e.Metrics()
	if int(m.RidesCreated)-int(m.RidesCompleted) != e.NumRides() {
		t.Fatalf("created %d − completed %d ≠ live %d",
			m.RidesCreated, m.RidesCompleted, e.NumRides())
	}
	// Every booked ride at the end must still be live or have been
	// completed; no seat count may be negative.
	e.Index().Rides(func(r *index.Ride) bool {
		if r.SeatsAvail < 0 {
			t.Errorf("ride %d has negative seats", r.ID)
		}
		return true
	})
	// Booking on a completed (removed) ride must fail cleanly.
	if id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 1500}); err == nil {
		e.CompleteRide(id)
		if _, err := e.Book(Match{Ride: id}, Request{Source: src, Dest: dst, LatestDeparture: 100, WalkLimit: 500}); err != ErrUnknownRide {
			t.Fatalf("booking a completed ride: err = %v, want ErrUnknownRide", err)
		}
	}
	// Every journaled timeline must come back strictly
	// seq-ascending after the concurrent run, and a full audit
	// sweep — schedules, index, journal causality — must be
	// silent on the quiesced engine.
	checked := 0
	e.Journal().PerRide(func(ride int64, evs []journal.Event, _ bool) bool {
		checked++
		for i := 1; i < len(evs); i++ {
			if evs[i-1].Seq >= evs[i].Seq {
				t.Errorf("ride %d timeline not seq-ascending at %d", ride, i)
				return false
			}
		}
		return true
	})
	if checked == 0 {
		t.Fatal("stress run journaled no rides")
	}
	auditor := audit.New(audit.Config{
		Target: audit.Target{
			View:    e.Index(),
			Graph:   e.disc.City().Graph,
			Epsilon: e.disc.Epsilon(),
			Journal: e.Journal(),
		},
		Logger: slog.New(slog.NewTextHandler(discardWriter{}, nil)),
	})
	if rep := auditor.Audit(); !rep.Clean() {
		t.Fatalf("audit after stress: %+v", rep.Violations)
	}
}

// TestConcurrentFillSearchCancel races the three operations that move a
// ride across the listed/unlisted line: bookers take the last seat of
// two-seat rides (the commit's Reregister unlists the ride), a canceller
// hands each seat back (its Reregister lists the ride again), and
// searchers read the lists meanwhile. A match is a promise made under the
// read lock — the ride had a seat — so every booking ends in success or in
// one of the stale-match errors, and once every seat is back the index is
// consistent and lists every ride again. Each booker also offers a ride
// of its own, hours after the others, before every attempt and completes
// it after — it lives across the booker's wait for the canceller — so
// slots are released and taken again under the searchers' feet, half of
// whose searches look in that later window, where the candidate they
// fetch by slot is whichever ride holds it then.
func TestConcurrentFillSearchCancel(t *testing.T) {
	e := concurrentEngine(t)
	src, dst := farPoints(t, e)
	var reqs []Request
	for i := 0; i < 6; i++ {
		id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: float64(1000 + 100*i), Seats: 2, DetourLimit: 3000})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, requestAlong(e, e.Ride(id), 0.3, 0.7, 3600, 900))
	}
	iters := 150
	if testing.Short() {
		iters = 40
	}

	// Unbuffered: a booker waits for the canceller to take its booking,
	// so fills and cancellations alternate even on one processor.
	taken := make(chan Booking)
	var filled, staleFull, sawChurn atomic.Int32
	var bookers, searchers sync.WaitGroup
	const churnDeparture = 40000 // outside every booker's window
	churnReq := reqs[0]
	churnReq.EarliestDeparture, churnReq.LatestDeparture = churnDeparture-3600, churnDeparture+3600
	const nBookers = 3
	attempt := func(w, i int) {
		req := reqs[(w+i)%len(reqs)]
		ms, err := e.Search(req)
		if err != nil {
			t.Errorf("search: %v", err)
			return
		}
		if len(ms) == 0 {
			return
		}
		switch bk, err := e.Book(ms[(w+i)%len(ms)], req); err {
		case nil:
			filled.Add(1)
			taken <- bk
		case ErrRideFull:
			staleFull.Add(1) // the seat went between the search and the booking
		case ErrNoLongerFeasible, ErrDetourExceeded:
		default:
			t.Errorf("unexpected booking error: %v", err)
		}
	}
	for w := 0; w < nBookers; w++ {
		bookers.Add(1)
		go func(w int) {
			defer bookers.Done()
			for i := 0; i < iters; i++ {
				churn, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: churnDeparture, Seats: 2, DetourLimit: 3000})
				if err != nil {
					t.Errorf("churn create: %v", err)
					return
				}
				attempt(w, i)
				if !e.CompleteRide(churn) {
					t.Errorf("churn ride %d was not there to complete", churn)
					return
				}
			}
		}(w)
	}
	cancelled := make(chan struct{})
	go func() {
		defer close(cancelled)
		for bk := range taken {
			if err := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode); err != nil {
				t.Errorf("cancel on ride %d: %v", bk.Ride, err)
			}
		}
	}()
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		searchers.Add(1)
		go func(w int) {
			defer searchers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := reqs[(w+i)%len(reqs)]
				if i%2 == 1 {
					req = churnReq
				}
				ms, err := e.Search(req)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if i%2 == 1 {
					sawChurn.Add(int32(len(ms)))
				}
			}
		}(w)
	}
	bookers.Wait()
	close(taken)
	<-cancelled
	close(stop)
	searchers.Wait()

	t.Logf("%d bookings filled a ride and were cancelled, %d stale matches met a full ride", filled.Load(), staleFull.Load())
	if filled.Load() < int32(len(reqs)) {
		t.Fatalf("%d bookings filled a ride: the race never ran", filled.Load())
	}
	slots := e.ix.Ix.NumSlots()
	t.Logf("%d rides came and went through %d slots, searches in their window matched them %d times", nBookers*iters, slots-len(reqs), sawChurn.Load())
	if most := len(reqs) + nBookers; slots > most {
		t.Fatalf("%d rides that came and went left %d slots for %d resident rides, want at most %d: a released slot must be the next one taken", nBookers*iters, slots, len(reqs), most)
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatalf("index invariants after the race: %v", err)
	}
	if got := e.Index().Stats().FullRides; got != 0 {
		t.Fatalf("every seat was handed back, index reports %d full rides", got)
	}
	if ms, err := e.Search(reqs[0]); err != nil || len(ms) != len(reqs) {
		t.Fatalf("a search along the corridor matches %d rides (err %v), want all %d back in the lists", len(ms), err, len(reqs))
	}
}
