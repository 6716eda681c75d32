package core

import (
	"math"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/memsize"
	"xar/internal/quality"
	"xar/internal/telemetry"
	"xar/internal/workload"
)

// denseFixture loads an engine the way the benchmark's search_dense
// workload does: one trip stream, every fifth trip a ride and the rest
// requests, so rides and requests cover the same hours and a search
// matches dozens of rides. Then it books a few matches (multi-segment
// rides, re-registered) and tracks the fleet to the middle of the first
// ride's route (crossed pass-throughs, compacted support tables); no
// ride is re-registered after being tracked, so every pass-through run
// still starts at route index 0 and referenceSearch needs no regFrom.
func denseFixture(t testing.TB, cfg Config, window float64) (*Engine, []Request) {
	t.Helper()
	e, err := NewEngine(newTestEngine(t).disc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(1500, 5)
	wcfg.StartHour, wcfg.EndHour = 8, 9
	trips, err := workload.Generate(e.disc.City(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	var first index.RideID
	for i, trip := range trips {
		if i%5 == 0 {
			id, err := e.CreateRide(RideOffer{Source: trip.Pickup, Dest: trip.Dropoff, Departure: trip.RequestTime + 450})
			if err == nil && first == 0 {
				first = id
			}
			continue
		}
		reqs = append(reqs, Request{
			Source: trip.Pickup, Dest: trip.Dropoff,
			EarliestDeparture: trip.RequestTime, LatestDeparture: trip.RequestTime + window,
			WalkLimit: 1000,
		})
	}
	booked := 0
	for _, req := range reqs {
		if booked == 20 {
			break
		}
		if ms, _ := e.Search(req); len(ms) > 0 {
			if _, err := e.Book(ms[0], req); err == nil {
				booked++
			}
		}
	}
	if booked == 0 {
		t.Fatal("fixture booked nothing")
	}
	r := e.Ride(first)
	if _, err := e.TrackAll(r.RouteETA[len(r.RouteETA)/2]); err != nil {
		t.Fatal(err)
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return e, reqs
}

// refSupport is one element of what Index.Supports returned before the
// support table went flat.
type refSupport struct {
	order, seg  int
	detour, eta float64
}

// referenceSupports rebuilds Index.Supports(r, c) as it was — a per-call
// filter, copy and detour sort over the ride's supports of c — from the
// ride's public schedule and the cluster distances alone, sharing
// nothing with the flat table, its sort or its compaction. from is the
// route index the ride's registration started at: its Progress when it
// was last (re-)registered, which is where pass-through runs are cut and
// numbered from.
func referenceSupports(e *Engine, r *index.Ride, c, from int) []refSupport {
	d := e.disc
	segmentOf := func(idx int) int {
		for s := 0; s+1 < len(r.Via); s++ {
			if idx >= r.Via[s].RouteIdx && idx <= r.Via[s+1].RouteIdx {
				if idx == r.Via[s+1].RouteIdx && s+2 < len(r.Via) {
					continue
				}
				return s
			}
		}
		return len(r.Via) - 2
	}
	var out []refSupport
	order := -1
	for i := from; i < len(r.Route); {
		pc := d.ClusterOfNode(r.Route[i])
		if pc < 0 {
			i++
			continue
		}
		// One pass-through run: equal cluster and segment, consecutive nodes.
		seg, first := segmentOf(i), i
		for i++; i < len(r.Route) && d.ClusterOfNode(r.Route[i]) == pc && segmentOf(i) == seg; i++ {
		}
		order++
		if i-1 < r.Progress {
			continue // crossed
		}
		eta := r.RouteETA[first]
		if pc == c {
			out = append(out, refSupport{order: order, seg: seg, eta: eta})
			continue
		}
		dist := d.ClusterDist(pc, c)
		if dist > r.DetourLimit {
			continue
		}
		detour := dist
		if via := d.ClusterOfNode(r.Via[seg+1].Node); via >= 0 {
			detour = math.Max(0, dist+d.ClusterDist(c, via)-d.ClusterDist(pc, via))
			if detour > r.DetourLimit {
				continue
			}
		}
		out = append(out, refSupport{order: order, seg: seg, detour: detour, eta: eta + dist/index.AvgSpeed})
	}
	// Supports held at most a dozen entries per cluster, where sort.Slice
	// is an insertion sort: equal detours stayed in route order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].detour < out[j].detour })
	return out
}

// referenceSearch is the search as it ran on per-call sorted supports
// and without the candidate table or the posting lists: every ride of the
// fleet with a free seat is tried against the request, taking — by
// exhaustive minimum — the least-walk pair of clusters it reaches
// in-window (earliest support of the cluster, what a list would hold it
// under), one on each side, and the old detour-and-order scan over
// referenceSupports. regFrom gives referenceSupports' from for rides
// re-registered after being tracked (absent: 0). It also returns how many
// rides it turned away for their walk alone.
func referenceSearch(t testing.TB, e *Engine, req Request, regFrom map[index.RideID]int) (out []refMatch, walkRejected int) {
	t.Helper()
	srcSide, err := e.walkableSide(req.Source, req.WalkLimit)
	if err != nil {
		return nil, 0
	}
	dstSide, err := e.walkableSide(req.Dest, req.WalkLimit)
	if err != nil {
		return nil, 0
	}
	// listing returns the clusters of side the ride reaches with an
	// earliest arrival in [EarliestDeparture, t2], in side (ascending
	// walk) order.
	listing := func(side []sideCandidate, r *index.Ride, t2 float64) (in []sideCandidate) {
		for _, sc := range side {
			eta := math.Inf(1)
			for _, s := range referenceSupports(e, r, sc.Cluster, regFrom[r.ID]) {
				eta = min(eta, s.eta)
			}
			if eta >= req.EarliestDeparture && eta <= t2 {
				in = append(in, sc)
			}
		}
		return in
	}
	e.ix.Ix.Rides(func(r *index.Ride) bool {
		if r.SeatsAvail <= 0 {
			return true
		}
		srcs := listing(srcSide, r, req.LatestDeparture)
		dsts := listing(dstSide, r, req.LatestDeparture+destWindowSlack)
		if len(srcs) == 0 || len(dsts) == 0 {
			return true
		}
		var src, dst sideCandidate
		best := math.Inf(1)
		for _, sc := range srcs {
			for _, dc := range dsts {
				if total := sc.Walk + dc.Walk; total < best {
					best, src, dst = total, sc, dc
				}
			}
		}
		if best > req.WalkLimit {
			walkRejected++
			return true
		}
		// A pair fits, so each side's first listed cluster must be one
		// that does: that pair is the only one the search tries.
		if first := srcs[0].Walk + dsts[0].Walk; first > req.WalkLimit {
			t.Fatalf("ride %d: clusters %d→%d walk %.0f m, within the limit, but the sides' first listed clusters %d→%d walk %.0f m",
				r.ID, src.Cluster, dst.Cluster, best, srcs[0].Cluster, dsts[0].Cluster, first)
		}
		bestTotal, found := r.DetourLimit+1, false
		var bm refMatch
		dups := referenceSupports(e, r, dst.Cluster, regFrom[r.ID])
		for _, s := range referenceSupports(e, r, src.Cluster, regFrom[r.ID]) {
			if s.detour >= bestTotal {
				break
			}
			for _, d := range dups {
				total := s.detour + d.detour
				if total >= bestTotal {
					break
				}
				if d.order < s.order || d.eta < s.eta || total > r.DetourLimit {
					continue
				}
				bestTotal, found = total, true
				bm = refMatch{Match{
					Ride: r.ID, PickupCluster: src.Cluster, DropoffCluster: dst.Cluster,
					WalkSource: src.Walk, WalkDest: dst.Walk,
					DetourEstimate: total, PickupETA: s.eta, DropoffETA: d.eta,
				}, [2]refSupport{s, d}}
				break
			}
		}
		if found {
			out = append(out, bm)
		}
		return true
	})
	slices.SortFunc(out, func(a, b refMatch) int { return compareMatches(&a.Match, &b.Match) })
	return out, walkRejected
}

// refMatch is a reference match with the pickup and drop-off supports
// the reference chose for it.
type refMatch struct {
	Match
	supports [2]refSupport
}

// equalReference reports whether got holds exactly want's matches, in
// order, each on the supports the reference chose: the (route order,
// segment) of the pair bestSupportPair, the search's own choice, finds
// for it on the ride now.
func equalReference(e *Engine, got []Match, want []refMatch) bool {
	if len(got) != len(want) {
		return false
	}
	for i, m := range got {
		r := e.Ride(m.Ride)
		if m != want[i].Match || r == nil {
			return false
		}
		ps, pd := bestSupportPair(r, m.PickupCluster, m.DropoffCluster, 0)
		s, d := want[i].supports[0], want[i].supports[1]
		if ps == nil || int(ps.Order) != s.order || r.SupportSeg(*ps) != s.seg || int(pd.Order) != d.order || r.SupportSeg(*pd) != d.seg {
			return false
		}
	}
	return true
}

// TestSearchEqualsSupportsReference: on a dense fleet the search returns
// exactly the matches — ride, clusters, walks, detour estimate, ETAs,
// support positions and segments, in the same order — of referenceSearch.
func TestSearchEqualsSupportsReference(t *testing.T) {
	e, reqs := denseFixture(t, DefaultConfig(), 900)
	total, multiSeg, walkRejected := 0, 0, 0
	for i := 0; i < len(reqs); i += 3 {
		got, err := e.Search(reqs[i])
		if err != nil && err != ErrNotServable {
			t.Fatal(err)
		}
		want, rejected := referenceSearch(t, e, reqs[i], nil)
		walkRejected += rejected
		if !equalReference(e, got, want) {
			t.Fatalf("request %d: search returned %d matches, reference %d\n got  %+v\n want %+v", i, len(got), len(want), got, want)
		}
		total += len(got)
		for _, m := range want {
			if m.supports[0].seg > 0 || m.supports[1].seg > 0 {
				multiSeg++
			}
		}
	}
	if n := len(reqs) / 3; total < 20*n {
		t.Fatalf("fixture is not dense: %d matches over %d searches", total, n)
	}
	if multiSeg == 0 {
		t.Fatal("no match used a support past a booked via-point")
	}
	if walkRejected == 0 {
		t.Fatal("no ride was turned away for its combined walk: the walk-limit check went untested")
	}
}

// TestMatchSize pins a match at 64 bytes, the eight fields a caller
// reads: the search copies every match it returns once.
func TestMatchSize(t *testing.T) {
	if n := unsafe.Sizeof(Match{}); n != 64 {
		t.Fatalf("a Match is %d bytes, want 64", n)
	}
}

// TestMatchesLieInTheirWindows: with a five-minute departure window,
// every returned match's pickup cluster lists the ride with an arrival
// inside the window, and its drop-off cluster inside the window extended
// by destWindowSlack.
func TestMatchesLieInTheirWindows(t *testing.T) {
	e, reqs := denseFixture(t, DefaultConfig(), 300)
	matches := 0
	for i, req := range reqs {
		ms, err := e.Search(req)
		if err != nil && err != ErrNotServable {
			t.Fatal(err)
		}
		for _, m := range ms {
			ix := e.ix.Ix
			pu, okP := ix.HasPotentialRide(m.PickupCluster, m.Ride)
			do, okD := ix.HasPotentialRide(m.DropoffCluster, m.Ride)
			if !okP || pu < req.EarliestDeparture || pu > req.LatestDeparture {
				t.Fatalf("request %d ride %d: pickup cluster %d ETA %.0f (listed %v) outside [%.0f, %.0f]",
					i, m.Ride, m.PickupCluster, pu, okP, req.EarliestDeparture, req.LatestDeparture)
			}
			if hi := req.LatestDeparture + destWindowSlack; !okD || do < req.EarliestDeparture || do > hi {
				t.Fatalf("request %d ride %d: drop-off cluster %d ETA %.0f (listed %v) outside [%.0f, %.0f]",
					i, m.Ride, m.DropoffCluster, do, okD, req.EarliestDeparture, hi)
			}
			matches++
		}
	}
	if matches == 0 {
		t.Fatal("no matches to check")
	}
}

// TestSearchAllocsDoNotScaleWithMatches: the per-candidate and per-match
// work of a search allocates nothing — a search returning dozens of
// matches allocates the slice it returns and nothing that grows with
// the result.
func TestSearchAllocsDoNotScaleWithMatches(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	e, reqs := denseFixture(t, DefaultConfig(), 900)
	var req Request
	most := 0
	for _, r := range reqs {
		if ms, _ := e.Search(r); len(ms) > most {
			req, most = r, len(ms)
		}
	}
	if most < 50 {
		t.Fatalf("densest request matches %d rides, want at least 50", most)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if ms, _ := e.Search(req); len(ms) != most {
			t.Fatalf("search returned %d matches, then %d", most, len(ms))
		}
	})
	t.Logf("%d matches, %.1f allocations per search", most, allocs)
	if allocs > 8 {
		t.Fatalf("a search returning %d matches allocated %.0f times, want at most 8", most, allocs)
	}
}

// TestSampledSearchJournalsDeterministically: the same sampled search,
// run twice against a frozen fleet, journals the same candidate and
// rejection events in the same order — which rides the capped sample
// shows does not depend on map iteration order.
func TestSampledSearchJournalsDeterministically(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Journal = journal.New(journal.Config{})
	cfg.Quality = quality.New(nil)
	cfg.SearchSampleRate = 1
	e, reqs := denseFixture(t, cfg, 900)
	defer e.Close()
	journaled := func(req Request) []journal.Event {
		since := cfg.Journal.LastSeq()
		if _, err := e.Search(req); err != nil && err != ErrNotServable {
			t.Fatal(err)
		}
		return cfg.Journal.Tail(journal.TailFilter{SinceSeq: since, Limit: 4 * maxCandidateEvents})
	}
	candidates, rejections := 0, 0
	for i := 0; i < len(reqs); i += 10 {
		a, b := journaled(reqs[i]), journaled(reqs[i])
		if len(a) != len(b) {
			t.Fatalf("request %d journaled %d events, then %d", i, len(a), len(b))
		}
		for k := range a {
			if a[k].Type != b[k].Type || a[k].Ride != b[k].Ride || a[k].Value != b[k].Value || a[k].Note != b[k].Note {
				t.Fatalf("request %d, event %d differs between two identical searches:\n %+v\n %+v", i, k, a[k], b[k])
			}
			switch a[k].Type {
			case journal.SearchCandidate:
				candidates++
			case journal.MatchRejected:
				rejections++
			}
		}
	}
	if candidates == 0 || rejections == 0 {
		t.Fatalf("journaled %d candidate and %d rejection events, want both", candidates, rejections)
	}
}

// TestTrackAllIsDeterministic: two engines fed the same create / book /
// TrackAll sequence end up with the same index, byte for byte of its
// deep size, and the same journal, event for event — TrackAll advances
// and retires rides in ride order, not in the order a map yields them.
// (The posting lists' block boundaries depend on the order of the writes,
// so the index size is sensitive to it.)
func TestTrackAllIsDeterministic(t *testing.T) {
	run := func() (uint64, []journal.Event) {
		cfg := DefaultConfig()
		cfg.Journal = journal.New(journal.Config{TailCapacity: 1 << 16})
		e, _ := denseFixture(t, cfg, 900)
		defer e.Close()
		completed := 0
		for now := 8.2 * 3600; now <= 8.6*3600; now += 180 {
			n, err := e.TrackAll(now)
			if err != nil {
				t.Fatal(err)
			}
			completed += n
		}
		if completed < 50 || e.NumRides() < 50 {
			t.Fatalf("%d rides completed, %d still active: want plenty of both", completed, e.NumRides())
		}
		if err := e.Index().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return memsize.Of(e.Index()), cfg.Journal.Tail(journal.TailFilter{Limit: 1 << 16})
	}
	sizeA, eventsA := run()
	sizeB, eventsB := run()
	if sizeA != sizeB {
		t.Errorf("index deep size differs between two identical runs: %d vs %d bytes", sizeA, sizeB)
	}
	if len(eventsA) != len(eventsB) {
		t.Fatalf("journals hold %d and %d events", len(eventsA), len(eventsB))
	}
	for k, a := range eventsA {
		if b := eventsB[k]; a.Seq != b.Seq || a.Type != b.Type || a.Ride != b.Ride || a.Value != b.Value || a.Note != b.Note {
			t.Fatalf("event %d differs between two identical runs:\n %+v\n %+v", k, a, b)
		}
	}
}
