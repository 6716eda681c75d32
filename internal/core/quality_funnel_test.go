package core

import (
	"math/rand"
	"sync"
	"testing"

	"xar/internal/discretize"
	"xar/internal/index"
	"xar/internal/quality"
	"xar/internal/roadnet"
)

// newQualityEngine builds the deterministic test world with a quality
// collector wired (and, when shadowRate > 0, the shadow counterfactual
// matcher at that sample rate).
func newQualityEngine(t testing.TB, shadowRate int) *Engine {
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
	cfg.Quality = quality.New(nil)
	cfg.ShadowSampleRate = shadowRate
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// fullRide creates a corridor ride and books it to zero seats, returning
// the ride, a request that matches it whenever it has a seat, and the
// booking that took the last one.
func fullRide(t *testing.T, e *Engine) (*index.Ride, Request, Booking) {
	t.Helper()
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, Seats: 3, DetourLimit: 4000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req := requestAlong(e, r, 0.3, 0.7, 3600, 900)
	var last Booking
	for e.Ride(id).SeatsAvail > 0 {
		ms, err := e.Search(req)
		if err != nil || len(ms) == 0 {
			t.Fatalf("search while filling: %v, %d matches (seats %d)", err, len(ms), e.Ride(id).SeatsAvail)
		}
		if last, err = e.Book(ms[0], req); err != nil {
			t.Fatalf("booking while seats remain: %v", err)
		}
	}
	return e.Ride(id), req, last
}

func TestFunnelClassifiesMatched(t *testing.T) {
	e := newQualityEngine(t, 0)
	qc := e.Quality()
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	req := requestAlong(e, e.Ride(id), 0.25, 0.75, 3600, 900)
	ms, err := e.Search(req)
	if err != nil || len(ms) == 0 {
		t.Fatalf("search: %v, %d matches", err, len(ms))
	}
	if got := stageCount(qc, quality.Matched); got != uint64(len(ms)) {
		t.Fatalf("matched stage = %d, want %d (one per returned match)", got, len(ms))
	}
	if qc.Examined() < uint64(len(ms)) {
		t.Fatalf("examined %d < %d matches", qc.Examined(), len(ms))
	}
	assertFunnelBalanced(t, e)
}

// TestFunnelCapacityStage: the funnel has no capacity stage, because a
// full ride is in no posting list. A search that matched the ride while
// it had a seat examines one candidate fewer once it is full and moves no
// stage; cancelling a booking lists the ride again and the same search
// examines and matches it.
func TestFunnelCapacityStage(t *testing.T) {
	e := newQualityEngine(t, 0)
	qc := e.Quality()
	r, req, last := fullRide(t, e)

	before := qc.Snapshot()
	ms, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("full ride still matched %d times", len(ms))
	}
	after := qc.Snapshot()
	if after.CandidatesExamined != before.CandidatesExamined {
		t.Fatalf("search examined %d candidates with the only ride full, want 0",
			after.CandidatesExamined-before.CandidatesExamined)
	}
	for st, n := range after.Funnel {
		if n != before.Funnel[st] {
			t.Errorf("stage %q moved %d → %d on a search that examined nothing", st, before.Funnel[st], n)
		}
	}
	if st := e.Index().Stats(); st.FullRides != 1 || st.ListEntries != 0 {
		t.Fatalf("index reports %d full rides and %d list entries, want 1 and 0", st.FullRides, st.ListEntries)
	}

	if err := e.CancelBooking(r.ID, last.PickupNode, last.DropoffNode); err != nil {
		t.Fatal(err)
	}
	ms, err = e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Ride != r.ID {
		t.Fatalf("after the cancellation the search returned %+v, want ride %d", ms, r.ID)
	}
	if got := qc.Examined() - after.CandidatesExamined; got != 1 {
		t.Fatalf("search examined %d candidates after the cancellation, want 1", got)
	}
	if got := stageCount(qc, quality.Matched) - after.Funnel["matched"]; got != 1 {
		t.Fatalf("matched stage moved by %d after the cancellation, want 1", got)
	}
	if st := e.Index().Stats(); st.FullRides != 0 {
		t.Fatalf("index still reports %d full rides", st.FullRides)
	}
	assertFunnelBalanced(t, e)
}

func TestFunnelOrderInfeasibleStage(t *testing.T) {
	e := newQualityEngine(t, 0)
	qc := e.Quality()
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 800})
	if err != nil {
		t.Fatal(err)
	}
	// Travelling against the ride: every candidate evaluation must end in
	// detour_bound or order_infeasible, never matched.
	req := requestAlong(e, e.Ride(id), 0.9, 0.1, 3600, 600)
	ms, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Ride == id && m.DropoffETA < m.PickupETA {
			t.Fatal("backwards match accepted")
		}
	}
	if len(ms) == 0 && stageCount(qc, quality.OrderInfeasible)+stageCount(qc, quality.DetourBound) == 0 {
		t.Fatalf("backwards no-match left no order/detour rejection; funnel: %v", e.Quality().Snapshot().Funnel)
	}
	assertFunnelBalanced(t, e)
}

func TestFunnelWalkLimitStage(t *testing.T) {
	e := newQualityEngine(t, 0)
	qc := e.Quality()
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Probe (deterministic seed) for a request whose best match needs
	// real walking on both legs. The final-loop walk values are the
	// per-side minima over clusters listing the ride, so every feasible
	// pair totals at least WalkSource+WalkDest: a limit strictly between
	// max(leg) and the sum keeps both endpoints servable but makes the
	// joint walk the unique binding filter.
	rng := rand.New(rand.NewSource(7))
	var probe Request
	var walkSrc, walkDst float64
	found := false
	for trial := 0; trial < 200 && !found; trial++ {
		probe = Request{
			Source:            e.disc.City().RandomPoint(rng),
			Dest:              e.disc.City().RandomPoint(rng),
			EarliestDeparture: 0,
			LatestDeparture:   1e6,
			WalkLimit:         1200,
		}
		ms, err := e.Search(probe)
		if err == ErrNotServable {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.Ride == id && m.WalkSource > 1 && m.WalkDest > 1 {
				walkSrc, walkDst = m.WalkSource, m.WalkDest
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no probe request with positive walk on both legs (seed layout changed?)")
	}
	longer := walkSrc
	if walkDst > longer {
		longer = walkDst
	}
	req := probe
	req.WalkLimit = (longer + walkSrc + walkDst) / 2

	before := stageCount(qc, quality.WalkLimit)
	ms, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Ride == id {
			t.Fatalf("ride matched with walk %v over limit %v", m.TotalWalk(), req.WalkLimit)
		}
	}
	if stageCount(qc, quality.WalkLimit) != before+1 {
		t.Fatalf("walk_limit stage %d → %d, want +1", before, stageCount(qc, quality.WalkLimit))
	}
	assertFunnelBalanced(t, e)
}

// stageCount reads one funnel stage's cumulative count.
func stageCount(qc *quality.Collector, stage int) uint64 {
	return qc.Snapshot().Funnel[quality.StageName(stage)]
}

// assertFunnelBalanced checks the funnel accounting identity after
// quiescence: every examined candidate classified exactly once.
func assertFunnelBalanced(t *testing.T, e *Engine) {
	t.Helper()
	qc := e.Quality()
	examined, classified, stable := qc.AccountingGap()
	if !stable {
		t.Fatal("accounting gap unstable with no searches in flight")
	}
	if classified != examined {
		t.Fatalf("classified %d != examined %d", classified, examined)
	}
}

// TestFunnelAccountingConcurrent hammers the search path from 8
// goroutines (run under -race in CI) and asserts the funnel identity:
// the per-stage classification sums exactly to the candidates examined,
// which equals the engine's own counter.
func TestFunnelAccountingConcurrent(t *testing.T) {
	e := newQualityEngine(t, 0)
	src, dst := farPoints(t, e)
	for i := 0; i < 10; i++ {
		if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: float64(i * 60), DetourLimit: 1500}); err != nil {
			t.Fatal(err)
		}
	}
	r := e.Ride(1)
	reqs := []Request{
		requestAlong(e, r, 0.2, 0.8, 1e6, 900),
		requestAlong(e, r, 0.8, 0.2, 1e6, 900), // backwards: rejections
		requestAlong(e, r, 0.4, 0.6, 10, 900),  // narrow window
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := e.Search(reqs[(w+i)%len(reqs)]); err != nil && err != ErrNotServable {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if e.Quality().Examined() == 0 {
		t.Fatal("no candidates examined by 400 searches")
	}
	assertFunnelBalanced(t, e)
}

// Detour/order edge cases at exact boundaries.
func TestCheckDetourExactBoundary(t *testing.T) {
	e := newQualityEngine(t, 0)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req := requestAlong(e, r, 0.25, 0.75, 3600, 900)
	ms, err := e.Search(req)
	if err != nil || len(ms) == 0 {
		t.Fatalf("probe search: %v, %d matches", err, len(ms))
	}
	var est float64 = -1
	for _, m := range ms {
		if m.Ride == id {
			est = m.DetourEstimate
		}
	}
	if est < 0 {
		t.Fatal("target ride not in probe matches")
	}
	e.CompleteRide(id)

	// A ride whose budget equals the estimate exactly must still match
	// (the bound is inclusive, detour ≤ limit)...
	atID, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: est})
	if err != nil {
		t.Fatal(err)
	}
	ms, err = e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Ride == atID {
			found = true
			if m.DetourEstimate != est {
				t.Fatalf("boundary match estimate %v, want %v", m.DetourEstimate, est)
			}
		}
	}
	if !found && est > 0 {
		t.Fatalf("detour exactly at the limit (%v) no longer matches", est)
	}
	e.CompleteRide(atID)

	// ...while a budget just under it must reject as detour_bound (an
	// order-feasible pair exists; only the budget binds).
	if est > 1 {
		before := stageCount(e.Quality(), quality.DetourBound)
		underID, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: est - 1})
		if err != nil {
			t.Fatal(err)
		}
		ms, err = e.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.Ride == underID {
				t.Fatalf("budget %v matched with estimate %v", est-1, m.DetourEstimate)
			}
		}
		if stageCount(e.Quality(), quality.DetourBound) != before+1 {
			t.Fatalf("under-budget rejection not classified detour_bound (total %d → %d)",
				before, stageCount(e.Quality(), quality.DetourBound))
		}
	}
	assertFunnelBalanced(t, e)
}

func TestSearchZeroSlackWindow(t *testing.T) {
	e := newQualityEngine(t, 0)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req := requestAlong(e, r, 0.25, 0.75, 3600, 900)
	ms, err := e.Search(req)
	if err != nil || len(ms) == 0 {
		t.Fatalf("probe search: %v, %d matches", err, len(ms))
	}
	var pickup float64 = -1
	for _, m := range ms {
		if m.Ride == id {
			pickup = m.PickupETA
		}
	}
	if pickup < 0 {
		t.Fatal("target ride not matched by probe")
	}
	// A degenerate window [pickup, pickup] must still admit the ride:
	// the window bounds are inclusive.
	req.EarliestDeparture = pickup
	req.LatestDeparture = pickup
	ms, err = e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Ride == id && m.PickupETA == pickup {
			found = true
		}
	}
	if !found {
		t.Fatalf("zero-slack window [%v,%v] excluded the ride whose pickup ETA defines it", pickup, pickup)
	}
	assertFunnelBalanced(t, e)
}

// TestShadowUnlocksCapacity: capacity is not a constraint the shadow
// matcher can lift — a full ride is in no list, so no relaxed re-run sees
// it either. A request whose only possible ride is full is attributed to
// "none", saturation shows as index.Stats.FullRides instead, and the
// cancellation that frees a seat makes the same request match again.
func TestShadowUnlocksCapacity(t *testing.T) {
	e := newQualityEngine(t, 1)
	qc := e.Quality()
	r, req, last := fullRide(t, e)

	ms, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("full ride matched %d times", len(ms))
	}
	e.ShadowFlush()

	unlocks := qc.Snapshot().Shadow.Unlocks
	if got := unlocks[quality.ConstraintNone]; got != 1 {
		t.Fatalf("none unlock = %d, want 1; snapshot: %+v", got, qc.Snapshot().Shadow)
	}
	for con, got := range unlocks {
		if con != quality.ConstraintNone && got != 0 {
			t.Errorf("constraint %q unlocked %d times; no relaxation can reach a full ride", con, got)
		}
	}
	if got := e.Index().Stats().FullRides; got != 1 {
		t.Fatalf("index reports %d full rides, want 1", got)
	}
	snap := qc.Snapshot()
	if snap.Shadow.Tasks[quality.TaskNoMatch] == 0 {
		t.Fatal("no no-match shadow task processed despite sample rate 1")
	}
	// The two seat-consuming bookings were shadow-sampled too: the regret
	// section must show them re-evaluated.
	if snap.Shadow.Regret.Bookings == 0 {
		t.Fatal("no regret task processed despite two bookings at sample rate 1")
	}
	if !snap.Shadow.Enabled {
		t.Fatal("snapshot does not report the shadow matcher enabled")
	}

	if err := e.CancelBooking(r.ID, last.PickupNode, last.DropoffNode); err != nil {
		t.Fatal(err)
	}
	if ms, err := e.Search(req); err != nil || len(ms) != 1 || ms[0].Ride != r.ID {
		t.Fatalf("after the cancellation the search returned %+v (err %v), want ride %d", ms, err, r.ID)
	}
}

// TestShadowDisabledByDefault: without a ShadowSampleRate the engine runs
// no shadow goroutine and the collector reports it disabled.
func TestShadowDisabledByDefault(t *testing.T) {
	e := newQualityEngine(t, 0)
	src, dst := farPoints(t, e)
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 1500}); err != nil {
		t.Fatal(err)
	}
	req := requestAlong(e, e.Ride(1), 0.9, 0.1, 10, 600)
	if _, err := e.Search(req); err != nil && err != ErrNotServable {
		t.Fatal(err)
	}
	e.ShadowFlush() // must be a no-op, not a hang
	snap := e.Quality().Snapshot()
	if snap.Shadow.Enabled {
		t.Fatal("shadow reported enabled without a sample rate")
	}
	if snap.Shadow.Tasks[quality.TaskNoMatch] != 0 {
		t.Fatal("shadow task processed without a shadow matcher")
	}
}
