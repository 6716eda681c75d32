// Benchmarks regenerating every table and figure of the paper's
// evaluation (§X). Each BenchmarkFigN* corresponds to an experiment in
// DESIGN.md's index (E1–E10); the cmd/xarbench binary prints the same
// rows with configurable scale. Ablation benchmarks quantify the design
// choices DESIGN.md calls out.
package xar

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xar/internal/audit"
	"xar/internal/cluster"
	"xar/internal/core"
	"xar/internal/experiments"
	"xar/internal/journal"
	"xar/internal/memsize"
	"xar/internal/profile"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/sim"
	"xar/internal/telemetry"
	"xar/internal/workload"
)

var (
	benchOnce  sync.Once
	benchWorld *experiments.World
	benchErr   error
)

// world lazily builds the shared benchmark world: a mid-size city and
// trip stream reused across benchmarks.
func world(b *testing.B) *experiments.World {
	b.Helper()
	benchOnce.Do(func() {
		s := experiments.DefaultScale()
		s.CityRows = 30
		s.CityCols = 16
		s.Requests = 1500
		benchWorld, benchErr = experiments.BuildWorld(s)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWorld
}

// seededXAR returns an XAR system preloaded with the world's offers.
func seededXAR(b *testing.B, w *experiments.World) (*sim.XARSystem, []workload.Trip) {
	b.Helper()
	eng, err := w.NewXAREngine()
	if err != nil {
		b.Fatal(err)
	}
	sys := &sim.XARSystem{Engine: eng}
	offers, requests := w.SplitOffersRequests()
	for _, o := range offers {
		_, _ = sys.Create(sim.Offer{
			Source: o.Pickup, Dest: o.Dropoff,
			Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
	return sys, requests
}

func seededTShare(b *testing.B, w *experiments.World, haversine bool) (*sim.TShareSystem, []workload.Trip) {
	b.Helper()
	eng, err := w.NewTShare(haversine)
	if err != nil {
		b.Fatal(err)
	}
	sys := &sim.TShareSystem{Engine: eng}
	offers, requests := w.SplitOffersRequests()
	for _, o := range offers {
		_, _ = sys.Create(sim.Offer{
			Source: o.Pickup, Dest: o.Dropoff,
			Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
	return sys, requests
}

func benchRequest(w *experiments.World, trips []workload.Trip, i int) sim.Request {
	t := trips[i%len(trips)]
	return sim.Request{
		Source: t.Pickup, Dest: t.Dropoff,
		Earliest: t.RequestTime, Latest: t.RequestTime + w.Scale.WindowSlack,
		WalkLimit: w.Scale.WalkLimit,
	}
}

// BenchmarkFig3aDetourQuality — E1: full simulation measuring the detour
// approximation-error CDF against the ε guarantee.
func BenchmarkFig3aDetourQuality(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3a(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FracUnder1E, "frac<=eps")
		b.ReportMetric(r.FracUnder2E, "frac<=2eps")
		b.ReportMetric(r.MaxError, "max_err_m")
	}
}

// BenchmarkFig3bClustersVsEpsilon — E2: cluster counts for an ε sweep.
func BenchmarkFig3bClustersVsEpsilon(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3b(w, []float64{500, 1000, 2000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Clusters), "clusters@eps500")
		b.ReportMetric(float64(rows[len(rows)-1].Clusters), "clusters@eps2000")
	}
}

// BenchmarkFig3cIndexMemory — E3: index bytes versus cluster count.
func BenchmarkFig3cIndexMemory(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3cd(w, []float64{800, 1600})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].IndexMB, "MB@fine")
		b.ReportMetric(rows[1].IndexMB, "MB@coarse")
	}
}

// BenchmarkFig3dSearchVsClusters — E4: search latency versus clusters.
func BenchmarkFig3dSearchVsClusters(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3cd(w, []float64{800, 1600})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].SearchMeanMS, "ms@fine")
		b.ReportMetric(rows[1].SearchMeanMS, "ms@coarse")
	}
}

// BenchmarkFig4aSearchXAR / TShare — E5: per-search latency on a loaded
// system (the paper's headline comparison).
func BenchmarkFig4aSearchXAR(b *testing.B) {
	w := world(b)
	sys, requests := seededXAR(b, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sys.Search(benchRequest(w, requests, i), 0)
	}
}

func BenchmarkFig4aSearchTShare(b *testing.B) {
	w := world(b)
	sys, requests := seededTShare(b, w, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sys.Search(benchRequest(w, requests, i), 0)
	}
}

// BenchmarkFig4bCreateXAR / TShare — E6: ride/taxi creation.
func BenchmarkFig4bCreateXAR(b *testing.B) {
	w := world(b)
	eng, err := w.NewXAREngine()
	if err != nil {
		b.Fatal(err)
	}
	sys := &sim.XARSystem{Engine: eng}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := w.Trips[i%len(w.Trips)]
		_, _ = sys.Create(sim.Offer{
			Source: t.Pickup, Dest: t.Dropoff,
			Departure: t.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
}

func BenchmarkFig4bCreateTShare(b *testing.B) {
	w := world(b)
	eng, err := w.NewTShare(false)
	if err != nil {
		b.Fatal(err)
	}
	sys := &sim.TShareSystem{Engine: eng}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := w.Trips[i%len(w.Trips)]
		_, _ = sys.Create(sim.Offer{
			Source: t.Pickup, Dest: t.Dropoff,
			Departure: t.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
}

// BenchmarkFig4cBookXAR / TShare — E7: booking a found match. Supply is
// self-sustaining per the §X-A2 protocol: a request with no match seeds
// a fresh offer (outside the timer), so bookings never run dry at large
// b.N.
func BenchmarkFig4cBookXAR(b *testing.B) {
	w := world(b)
	sys, requests := seededXAR(b, w)
	b.ReportAllocs()
	benchBookLoop(b, w, sys, requests)
}

func BenchmarkFig4cBookTShare(b *testing.B) {
	w := world(b)
	// Haversine candidate discovery keeps the (untimed) per-iteration
	// search cheap; Book itself always runs the real shortest-path
	// splice, which is what this benchmark measures.
	sys, requests := seededTShare(b, w, true)
	benchBookLoop(b, w, sys, requests)
}

func benchBookLoop(b *testing.B, w *experiments.World, sys sim.System, requests []workload.Trip) {
	b.Helper()
	booked := 0
	b.ResetTimer()
	for i := 0; booked < b.N; i++ {
		req := benchRequest(w, requests, i)
		b.StopTimer()
		cands, _ := sys.Search(req, 1)
		if len(cands) == 0 {
			// Become a driver, like the paper's simulation protocol.
			_, _ = sys.Create(sim.Offer{
				Source: req.Source, Dest: req.Dest,
				Departure: req.Earliest + (req.Latest-req.Earliest)/2,
				Seats:     4, DetourLimit: w.Scale.DetourLimit,
			})
			b.StartTimer()
			continue
		}
		b.StartTimer()
		if _, err := sys.Book(cands[0], req); err == nil {
			booked++
		}
	}
}

// BenchmarkFig5aSearchK — E8: search latency for k matches; XAR flat,
// T-Share (haversine mode) ~linear in k.
func BenchmarkFig5aSearchK_XAR_k1(b *testing.B)     { fig5aXAR(b, 1) }
func BenchmarkFig5aSearchK_XAR_k25(b *testing.B)    { fig5aXAR(b, 25) }
func BenchmarkFig5aSearchK_TShare_k1(b *testing.B)  { fig5aTShare(b, 1) }
func BenchmarkFig5aSearchK_TShare_k25(b *testing.B) { fig5aTShare(b, 25) }

func fig5aXAR(b *testing.B, k int) {
	w := world(b)
	sys, requests := seededXAR(b, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sys.Search(benchRequest(w, requests, i), k)
	}
}

func fig5aTShare(b *testing.B, k int) {
	w := world(b)
	sys, requests := seededTShare(b, w, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sys.Search(benchRequest(w, requests, i), k)
	}
}

// BenchmarkFig5bLookToBook — E9: r searches + 1 booking attempt.
func BenchmarkFig5bLookToBook_XAR_r100(b *testing.B)    { fig5b(b, true, 100) }
func BenchmarkFig5bLookToBook_TShare_r100(b *testing.B) { fig5b(b, false, 100) }

func fig5b(b *testing.B, xar bool, ratio int) {
	w := world(b)
	var sys sim.System
	var requests []workload.Trip
	if xar {
		sys, requests = seededXAR(b, w)
	} else {
		sys, requests = seededTShare(b, w, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := benchRequest(w, requests, i)
		var cands []sim.Candidate
		for r := 0; r < ratio; r++ {
			cands, _ = sys.Search(req, 0)
		}
		for _, c := range cands {
			if _, err := sys.Book(c, req); err == nil {
				break
			}
		}
	}
}

// BenchmarkFig6Modes — E10: the four-mode comparison.
func BenchmarkFig6Modes(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(w)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range r.Modes {
			switch m.Mode {
			case "RS":
				b.ReportMetric(float64(m.Cars), "rs_cars")
			case "RS+PT":
				b.ReportMetric(float64(m.Cars), "rspt_cars")
			}
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationLinearScanList: by-ETA binary search vs linear scan
// of the potential-ride lists.
func BenchmarkAblationLinearScanList(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		row, err := experiments.AblationSortedLists(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(row.OnMeanMS, "sorted_ms")
		b.ReportMetric(row.OffMeanMS, "linear_ms")
	}
}

// BenchmarkAblationNoReachablePrecompute: reachable-cluster expansion at
// registration time vs pass-through-only indexing.
func BenchmarkAblationNoReachablePrecompute(b *testing.B) {
	w := world(b)
	for i := 0; i < b.N; i++ {
		row, err := experiments.AblationReachablePrecompute(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(row.OnMatches), "matches_on")
		b.ReportMetric(float64(row.OffMatches), "matches_off")
	}
}

// BenchmarkAblationGreedySearchProbes: GREEDYSEARCH answering every probe
// of its binary search from one farthest-first traversal vs the paper's
// literal algorithm, a fresh GREEDY per probe (internal/cluster's oracle).
func BenchmarkAblationGreedySearchProbes(b *testing.B) {
	w := world(b)
	n := len(w.Disc.Landmarks)
	dist := func(i, j int) float64 {
		return max(w.Disc.LandmarkDist(i, j), w.Disc.LandmarkDist(j, i))
	}
	delta := w.Scale.Epsilon / 4

	b.Run("traversal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cluster.GreedySearch(n, dist, delta); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from_scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for lo, hi := 1, n; lo <= hi; {
				k := (lo + hi) / 2
				res, err := cluster.Greedy(n, dist, k)
				if err != nil {
					b.Fatal(err)
				}
				if res.Radius <= 2*delta {
					hi = k - 1
				} else {
					lo = k + 1
				}
			}
		}
	})
}

// BenchmarkAblationBookingFullReroute: XAR's ≤4-shortest-path splice vs
// naively recomputing the whole route via every via-point. The splice
// cost is dominated by its ≤4 shortest paths; the naive full reroute of
// a ride with 10 accumulated via-points runs one shortest path per
// consecutive pair (11). Both patterns are measured on the road graph.
func BenchmarkAblationBookingFullReroute(b *testing.B) {
	w := world(b)
	g := w.City.Graph
	s := roadnet.NewSearcher(g)
	rng := rand.New(rand.NewSource(7))
	nodes := make([]roadnet.NodeID, 12)
	for i := range nodes {
		nodes[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
	}
	b.Run("splice4paths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < 4; j++ {
				_ = s.ShortestPath(nodes[j], nodes[j+1])
			}
		}
	})
	b.Run("fullreroute11paths", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j+1 < len(nodes); j++ {
				_ = s.ShortestPath(nodes[j], nodes[j+1])
			}
		}
	})
}

// BenchmarkSearchTelemetry quantifies the observability overhead on the
// search hot path: the same loaded system with engine telemetry off
// (nil registry — a single pointer check per op) and on (op + stage
// histograms recorded per search). The acceptance budget is ≤5%.
func BenchmarkSearchTelemetry(b *testing.B) {
	w := world(b)
	run := func(b *testing.B, reg *telemetry.Registry) {
		ecfg := core.DefaultConfig()
		ecfg.DefaultDetourLimit = w.Scale.DetourLimit
		ecfg.Telemetry = reg
		eng, err := core.NewEngine(w.Disc, ecfg)
		if err != nil {
			b.Fatal(err)
		}
		sys := &sim.XARSystem{Engine: eng}
		offers, requests := w.SplitOffersRequests()
		for _, o := range offers {
			_, _ = sys.Create(sim.Offer{
				Source: o.Pickup, Dest: o.Dropoff,
				Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
			})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = sys.Search(benchRequest(w, requests, i), 0)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, telemetry.NewRegistry()) })
}

// BenchmarkSearchTracing quantifies the request-tracing overhead on the
// same loaded search path: off (nil tracer — one nil check per op), the
// head-sampling curve (1-in-16/32/64; the per-trace span cost amortizes
// across unsampled calls, plus a cold-cache penalty the sparser tiers
// pay per trace), and always-on (every search builds its full span
// tree). Budgets: off within 5% of BenchmarkSearchTelemetry/off, and
// the production default (1-in-64, xarserver -trace-sample) within 10%.
func BenchmarkSearchTracing(b *testing.B) {
	w := world(b)
	run := func(b *testing.B, tr *telemetry.Tracer) {
		ecfg := core.DefaultConfig()
		ecfg.DefaultDetourLimit = w.Scale.DetourLimit
		ecfg.Telemetry = telemetry.NewRegistry()
		ecfg.Tracer = tr
		eng, err := core.NewEngine(w.Disc, ecfg)
		if err != nil {
			b.Fatal(err)
		}
		sys := &sim.XARSystem{Engine: eng}
		offers, requests := w.SplitOffersRequests()
		for _, o := range offers {
			_, _ = sys.Create(sim.Offer{
				Source: o.Pickup, Dest: o.Dropoff,
				Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
			})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = sys.Search(benchRequest(w, requests, i), 0)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("head16", func(b *testing.B) {
		run(b, telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 16}))
	})
	b.Run("head32", func(b *testing.B) {
		run(b, telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 32}))
	})
	b.Run("head64", func(b *testing.B) {
		run(b, telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 64}))
	})
	b.Run("always", func(b *testing.B) {
		run(b, telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1}))
	})
}

// BenchmarkSearchRecorder quantifies the flight recorder's effect on the
// search hot path: the instrumented engine alone ("off") versus the same
// engine while a recorder snapshots the registry concurrently at an
// aggressive 5 ms cadence ("on" — 2000× the production 10 s default, an
// upper bound on snapshot interference). The recorder reads the same
// atomics the hot path writes but takes no locks the hot path touches,
// so the budget is the usual ≤5%.
func BenchmarkSearchRecorder(b *testing.B) {
	w := world(b)
	run := func(b *testing.B, withRecorder bool) {
		reg := telemetry.NewRegistry()
		ecfg := core.DefaultConfig()
		ecfg.DefaultDetourLimit = w.Scale.DetourLimit
		ecfg.Telemetry = reg
		eng, err := core.NewEngine(w.Disc, ecfg)
		if err != nil {
			b.Fatal(err)
		}
		if withRecorder {
			rec := telemetry.NewRecorder(reg, telemetry.RecorderConfig{
				Interval:  5 * time.Millisecond,
				Retention: 10 * time.Second,
			})
			rec.Start()
			defer rec.Stop()
		}
		sys := &sim.XARSystem{Engine: eng}
		offers, requests := w.SplitOffersRequests()
		for _, o := range offers {
			_, _ = sys.Create(sim.Offer{
				Source: o.Pickup, Dest: o.Dropoff,
				Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
			})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = sys.Search(benchRequest(w, requests, i), 0)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkSearchThroughput measures sustained search QPS on a loaded
// index — the headline capability for MMTP integration (≤50 ms per
// enhanced search, §IX-B).
func BenchmarkSearchThroughput(b *testing.B) {
	w := world(b)
	sys, requests := seededXAR(b, w)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sys.Search(benchRequest(w, requests, i), 0)
	}
	b.StopTimer()
	if b.N > 0 {
		qps := float64(b.N) / time.Since(start).Seconds()
		b.ReportMetric(qps, "searches/s")
	}
}

// BenchmarkSearchDense measures the search whose cost is per-candidate
// work, which the earliest-fifth split of the benchmarks above never
// reaches (most of their searches match nothing): one hour of trips,
// every fifth a ride and the rest requests — the split of the repository
// benchmark's search_dense workload — on the default engine, so a search
// examines hundreds of candidates and returns dozens of matches.
// allocs/op is exact and gated by `make bench-trend`.
func BenchmarkSearchDense(b *testing.B) {
	w := world(b)
	wcfg := workload.DefaultConfig(5000, w.Scale.Seed+2)
	wcfg.StartHour, wcfg.EndHour = 8, 9
	trips, err := workload.Generate(w.City, wcfg)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(w.Disc, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var reqs []core.Request
	for i, t := range trips {
		if i%5 == 0 {
			_, _ = eng.CreateRide(core.RideOffer{
				Source: t.Pickup, Dest: t.Dropoff,
				Departure: t.RequestTime + w.Scale.WindowSlack/2, Seats: 4, DetourLimit: w.Scale.DetourLimit,
			})
			continue
		}
		reqs = append(reqs, core.Request{
			Source: t.Pickup, Dest: t.Dropoff,
			EarliestDeparture: t.RequestTime, LatestDeparture: t.RequestTime + w.Scale.WindowSlack,
			WalkLimit: w.Scale.WalkLimit,
		})
		// Per-grid attributes are computed on first use; do that here so
		// the measured allocations are the search's own.
		w.Disc.Info(w.Disc.GridAt(t.Pickup))
		w.Disc.Info(w.Disc.GridAt(t.Dropoff))
	}
	matches := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, _ := eng.Search(reqs[i%len(reqs)])
		matches += len(ms)
	}
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
}

// BenchmarkReplayCandidates counts what a search has to look at over a
// whole ride life-cycle: a fixed 2 000-trip replay in the paper's protocol
// (track, search, book the best match or else offer a ride) on the default
// engine with the quality funnel on, reporting the candidates a search
// examined, the matches it returned and the shortest paths a booking
// searched (the rest of its legs it cut out of the old route). All are
// exact counts of a deterministic replay — `make bench-trend` holds
// candidates/search and paths/book in exact bands; ns/op is the whole
// replay and claims nothing.
func BenchmarkReplayCandidates(b *testing.B) {
	w := world(b)
	wcfg := workload.DefaultConfig(2000, w.Scale.Seed+3)
	wcfg.StartHour, wcfg.EndHour = 8, 10
	trips, err := workload.Generate(w.City, wcfg)
	if err != nil {
		b.Fatal(err)
	}
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Quality = quality.New(nil)
		eng, err := core.NewEngine(w.Disc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(&sim.XARSystem{Engine: eng}, trips, sim.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
		m = eng.Metrics()
		eng.Close()
	}
	b.ReportMetric(float64(m.CandidatesExamined)/float64(m.Searches), "candidates/search")
	b.ReportMetric(float64(m.SearchMatches)/float64(m.Searches), "matches/search")
	b.ReportMetric(float64(m.ShortestPaths-m.RidesCreated)/float64(m.Bookings), "paths/book")
}

// forProcs runs f as sub-benchmark procsP at GOMAXPROCS ∈ {1, 2, 4, 8}.
func forProcs(b *testing.B, f func(b *testing.B)) {
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("procs%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(b)
		})
	}
}

// BenchmarkSearchThroughputParallel drives concurrent searches with
// b.RunParallel at GOMAXPROCS ∈ {1, 2, 4, 8}. On multi-core hardware the
// searches/s metric should scale near-linearly with procs (searches share
// the read lock); the measured curve is recorded in BENCH_parallel.json.
func BenchmarkSearchThroughputParallel(b *testing.B) {
	w := world(b)
	forProcs(b, func(b *testing.B) {
		sys, requests := seededXAR(b, w)
		var ctr atomic.Int64
		start := time.Now()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(ctr.Add(1))
				_, _ = sys.Search(benchRequest(w, requests, i), 0)
			}
		})
		b.StopTimer()
		if b.N > 0 {
			qps := float64(b.N) / time.Since(start).Seconds()
			b.ReportMetric(qps, "searches/s")
		}
	})
}

// BenchmarkSearchJournal quantifies the event-journal overhead on the
// search hot path: off (nil journal — one pointer check per op), on (the
// engine records lifecycle events; search-candidate emission rides the
// existing 1-in-32 telemetry sample), and on+audit (a background auditor
// additionally sweeps every 50 ms — 600× the production 30 s cadence, an
// upper bound on sweep interference). The acceptance budget is ≤5%,
// recorded in BENCH_audit.json.
func BenchmarkSearchJournal(b *testing.B) {
	w := world(b)
	run := func(b *testing.B, jr *journal.Journal, withAuditor bool) {
		ecfg := core.DefaultConfig()
		ecfg.DefaultDetourLimit = w.Scale.DetourLimit
		ecfg.Telemetry = telemetry.NewRegistry()
		ecfg.Journal = jr
		eng, err := core.NewEngine(w.Disc, ecfg)
		if err != nil {
			b.Fatal(err)
		}
		if withAuditor {
			a := audit.New(audit.Config{
				Target: audit.Target{
					View:    eng.Index(),
					Graph:   w.City.Graph,
					Epsilon: w.Disc.Epsilon(),
					Journal: jr,
				},
				Interval: 50 * time.Millisecond,
				Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			a.Start()
			defer a.Stop()
		}
		sys := &sim.XARSystem{Engine: eng}
		offers, requests := w.SplitOffersRequests()
		for _, o := range offers {
			_, _ = sys.Create(sim.Offer{
				Source: o.Pickup, Dest: o.Dropoff,
				Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
			})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = sys.Search(benchRequest(w, requests, i), 0)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil, false) })
	b.Run("on", func(b *testing.B) { run(b, journal.New(journal.Config{}), false) })
	b.Run("onAudit", func(b *testing.B) { run(b, journal.New(journal.Config{}), true) })
}

// runSearchQuality drives the loaded search path with the given
// match-quality configuration — the shared body of
// BenchmarkSearchQuality and the bench-quality-smoke CI fence.
func runSearchQuality(b *testing.B, qc *quality.Collector, shadowRate int) {
	w := world(b)
	ecfg := core.DefaultConfig()
	ecfg.DefaultDetourLimit = w.Scale.DetourLimit
	ecfg.Telemetry = telemetry.NewRegistry()
	ecfg.Quality = qc
	ecfg.ShadowSampleRate = shadowRate
	eng, err := core.NewEngine(w.Disc, ecfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	sys := &sim.XARSystem{Engine: eng}
	offers, requests := w.SplitOffersRequests()
	for _, o := range offers {
		_, _ = sys.Create(sim.Offer{
			Source: o.Pickup, Dest: o.Dropoff,
			Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sys.Search(benchRequest(w, requests, i), 0)
	}
}

// BenchmarkSearchQuality quantifies the match-quality accounting
// overhead on the loaded search hot path: the instrumented engine with
// no collector ("off" — one nil check per search), the funnel +
// approximation-gap collector ("on" — per-stage counts accumulate in a
// stack array alongside checks the search already runs and fold into
// atomics once per search), and the collector plus the shadow
// counterfactual matcher at the production 1-in-8 sample ("onShadow" —
// no-match offers are enqueue-or-drop behind a bounded channel, so the
// request path never blocks on the shadow worker). The acceptance
// budget for off vs on is ≤5% (BENCH_quality.json).
func BenchmarkSearchQuality(b *testing.B) {
	b.Run("off", func(b *testing.B) { runSearchQuality(b, nil, 0) })
	b.Run("on", func(b *testing.B) { runSearchQuality(b, quality.New(nil), 0) })
	b.Run("onShadow", func(b *testing.B) { runSearchQuality(b, quality.New(nil), 8) })
}

// TestSearchQualityOverheadSmoke is the fence behind `make
// bench-quality-smoke`: it interleaves the off and on arms of
// BenchmarkSearchQuality and fails when the funnel accounting slows
// the loaded search path past a generous 25%. The real ≤5% budget is
// judged on same-batch medians from quiet hardware and recorded in
// BENCH_quality.json (whose committed numbers the schema test
// re-checks); the smoke fence is loose because shared CI runners drift
// ±15% between batches (see the hardware notes in BENCH_audit.json).
// It exists to catch a structural regression — an O(candidates)
// allocation or a lock added to the hot path reads as 2x, not 1.05x.
// Gated behind XAR_QUALITY_SMOKE=1 so `go test ./...` stays fast.
func TestSearchQualityOverheadSmoke(t *testing.T) {
	if os.Getenv("XAR_QUALITY_SMOKE") == "" {
		t.Skip("set XAR_QUALITY_SMOKE=1 to run the quality overhead fence")
	}
	const rounds = 3
	best := func(samples []float64) float64 {
		m := math.MaxFloat64
		for _, s := range samples {
			if s < m {
				m = s
			}
		}
		return m
	}
	var offs, ons []float64
	for i := 0; i < rounds; i++ {
		off := testing.Benchmark(func(b *testing.B) { runSearchQuality(b, nil, 0) })
		on := testing.Benchmark(func(b *testing.B) { runSearchQuality(b, quality.New(nil), 0) })
		offs = append(offs, float64(off.NsPerOp()))
		ons = append(ons, float64(on.NsPerOp()))
	}
	offNs, onNs := best(offs), best(ons)
	t.Logf("search ns/op: quality off %.0f, on %.0f (%+.1f%%)", offNs, onNs, 100*(onNs-offNs)/offNs)
	if onNs > offNs*1.25 {
		t.Errorf("quality accounting slows search by %.1f%% (off %.0f ns/op, on %.0f ns/op) — past the 25%% smoke fence",
			100*(onNs-offNs)/offNs, offNs, onNs)
	}
}

// runSearchMemsize drives the loaded search path with or without memory
// accounting — the shared body of BenchmarkSearchMemsize and the
// bench-memory-smoke CI fence. The "on" arm runs the background sweeper
// at a 1 ms requested cadence (30,000× the production 30 s default); the
// duty-cycle throttle then re-sweeps as fast as its ≤1%-of-one-core
// budget allows, making this an upper bound on sweep interference.
func runSearchMemsize(b *testing.B, withAccounting bool) {
	w := world(b)
	ecfg := core.DefaultConfig()
	ecfg.DefaultDetourLimit = w.Scale.DetourLimit
	ecfg.Telemetry = telemetry.NewRegistry()
	if withAccounting {
		ecfg.Memory = memsize.NewRegistry()
		ecfg.MemSweepInterval = time.Millisecond
	}
	eng, err := core.NewEngine(w.Disc, ecfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	sys := &sim.XARSystem{Engine: eng}
	offers, requests := w.SplitOffersRequests()
	for _, o := range offers {
		_, _ = sys.Create(sim.Offer{
			Source: o.Pickup, Dest: o.Dropoff,
			Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sys.Search(benchRequest(w, requests, i), 0)
	}
}

// BenchmarkSearchMemsize quantifies the memory-accounting overhead on
// the loaded search hot path: no registry ("off" — a nil check at
// construction, nothing per op), versus full component accounting with
// the background sweeper duty-cycling as fast as its budget allows
// ("on"). The sweep takes per-component locks one component at a time —
// the read lock on the index, ring mutexes on the journal — which
// searches share. The acceptance budget is ≤5% (BENCH_memory.json).
func BenchmarkSearchMemsize(b *testing.B) {
	b.Run("off", func(b *testing.B) { runSearchMemsize(b, false) })
	b.Run("on", func(b *testing.B) { runSearchMemsize(b, true) })
}

// TestMemorySweepOverheadSmoke is the fence behind `make
// bench-memory-smoke`: it interleaves the off and on arms of
// BenchmarkSearchMemsize and fails when continuous sweeping slows the
// loaded search path past a generous 25% (the real ≤5% budget is judged
// on same-batch medians from quiet hardware and recorded in
// BENCH_memory.json; shared CI runners drift ±15% between batches). It
// then checks accounting coverage: on a loaded engine, the component
// byte total must land within 20% of the live Go heap after a GC —
// the acceptance criterion that the registry explains where the
// process's memory actually is.
// Gated behind XAR_MEMORY_SMOKE=1 so `go test ./...` stays fast.
func TestMemorySweepOverheadSmoke(t *testing.T) {
	if os.Getenv("XAR_MEMORY_SMOKE") == "" {
		t.Skip("set XAR_MEMORY_SMOKE=1 to run the memory sweep overhead fence")
	}
	const rounds = 3
	best := func(samples []float64) float64 {
		m := math.MaxFloat64
		for _, s := range samples {
			if s < m {
				m = s
			}
		}
		return m
	}
	var offs, ons []float64
	for i := 0; i < rounds; i++ {
		off := testing.Benchmark(func(b *testing.B) { runSearchMemsize(b, false) })
		on := testing.Benchmark(func(b *testing.B) { runSearchMemsize(b, true) })
		offs = append(offs, float64(off.NsPerOp()))
		ons = append(ons, float64(on.NsPerOp()))
	}
	offNs, onNs := best(offs), best(ons)
	t.Logf("search ns/op: accounting off %.0f, on %.0f (%+.1f%%)", offNs, onNs, 100*(onNs-offNs)/offNs)
	if onNs > offNs*1.25 {
		t.Errorf("memory accounting slows search by %.1f%% (off %.0f ns/op, on %.0f ns/op) — past the 25%% smoke fence",
			100*(onNs-offNs)/offNs, offNs, onNs)
	}

	// Coverage: a loaded accounting engine's tracked component total must
	// explain the live heap within 20% once transient garbage is swept.
	w := benchWorld
	ecfg := core.DefaultConfig()
	ecfg.DefaultDetourLimit = w.Scale.DetourLimit
	ecfg.Memory = memsize.NewRegistry()
	ecfg.Journal = journal.New(journal.Config{})
	eng, err := core.NewEngine(w.Disc, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sys := &sim.XARSystem{Engine: eng}
	for _, trip := range w.Trips {
		_, _ = sys.Create(sim.Offer{
			Source: trip.Pickup, Dest: trip.Dropoff,
			Departure: trip.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
	runtime.GC()
	rep := eng.MemSweep()
	if rep == nil {
		t.Fatal("MemSweep returned nil")
	}
	ratio := rep.Heap.TrackedCoverageRatio
	t.Logf("coverage: %d components, tracked %.1f MB, heap alloc %.1f MB (ratio %.2f)",
		len(rep.Components), float64(rep.TrackedTotalBytes)/(1<<20),
		float64(rep.Heap.HeapAllocBytes)/(1<<20), ratio)
	if len(rep.Components) < 4 {
		t.Errorf("only %d components on the coverage engine", len(rep.Components))
	}
	if ratio < 0.80 || ratio > 1.20 {
		t.Errorf("tracked components cover %.0f%% of the live heap, want within 20%% (tracked %d bytes, heap %d)",
			100*ratio, rep.TrackedTotalBytes, rep.Heap.HeapAllocBytes)
	}
}

// runSearchProfiling drives the loaded search path with or without the
// continuous profiler — the shared body of BenchmarkSearchProfiling and
// the bench-profile-smoke CI fence. The "on" arm requests a 1 ms
// cadence (60,000× the production 60 s default), so the capture loop
// runs as hot as its duty-cycle floors allow: the CPU sampling window
// at its full ≤10%-of-wall budget and the fold work at its ≤1%-of-core
// budget. The window is shortened to 50 ms so one duty cycle completes
// every ~450 ms — several per bench round — and the measured op sees
// the steady-state duty shares rather than a coin flip on whether the
// production-length 1 s window happened to blanket the timed region.
func runSearchProfiling(b *testing.B, withProfiler bool) {
	w := world(b)
	ecfg := core.DefaultConfig()
	ecfg.DefaultDetourLimit = w.Scale.DetourLimit
	ecfg.Telemetry = telemetry.NewRegistry()
	if withProfiler {
		ecfg.Profiling = profile.New(profile.Config{Registry: ecfg.Telemetry, CPUWindow: 50 * time.Millisecond})
		ecfg.ProfileInterval = time.Millisecond
	}
	eng, err := core.NewEngine(w.Disc, ecfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	sys := &sim.XARSystem{Engine: eng}
	offers, requests := w.SplitOffersRequests()
	for _, o := range offers {
		_, _ = sys.Create(sim.Offer{
			Source: o.Pickup, Dest: o.Dropoff,
			Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sys.Search(benchRequest(w, requests, i), 0)
	}
}

// BenchmarkSearchProfiling quantifies the continuous profiler's
// overhead on the loaded search hot path: no profiler ("off" — a nil
// check at construction, nothing per op) versus the capture worker
// duty-cycling as fast as its ≤1%-of-one-core budget allows with CPU
// sampling, heap/alloc deltas, and mutex/block folds all enabled
// ("on"). The acceptance budget is ≤5% (BENCH_profile.json).
func BenchmarkSearchProfiling(b *testing.B) {
	b.Run("off", func(b *testing.B) { runSearchProfiling(b, false) })
	b.Run("on", func(b *testing.B) { runSearchProfiling(b, true) })
}

// TestSearchProfilingOverheadSmoke is the fence behind `make
// bench-profile-smoke`: it interleaves the off and on arms of
// BenchmarkSearchProfiling and fails when always-on profiling slows
// the loaded search path past a generous 25% (the real ≤5% budget is
// judged on same-batch medians from quiet hardware and recorded in
// BENCH_profile.json; shared CI runners drift ±15% between batches).
// It then asserts the profiler actually worked during the bench: a
// capture-bearing engine must report every delta kind and a sane
// overhead gauge, or the "on" arm was measuring a no-op.
// Gated behind XAR_PROFILE_SMOKE=1 so `go test ./...` stays fast.
func TestSearchProfilingOverheadSmoke(t *testing.T) {
	if os.Getenv("XAR_PROFILE_SMOKE") == "" {
		t.Skip("set XAR_PROFILE_SMOKE=1 to run the profiling overhead fence")
	}
	const rounds = 3
	best := func(samples []float64) float64 {
		m := math.MaxFloat64
		for _, s := range samples {
			if s < m {
				m = s
			}
		}
		return m
	}
	var offs, ons []float64
	for i := 0; i < rounds; i++ {
		off := testing.Benchmark(func(b *testing.B) { runSearchProfiling(b, false) })
		on := testing.Benchmark(func(b *testing.B) { runSearchProfiling(b, true) })
		offs = append(offs, float64(off.NsPerOp()))
		ons = append(ons, float64(on.NsPerOp()))
	}
	offNs, onNs := best(offs), best(ons)
	t.Logf("search ns/op: profiler off %.0f, on %.0f (%+.1f%%)", offNs, onNs, 100*(onNs-offNs)/offNs)
	if onNs > offNs*1.25 {
		t.Errorf("continuous profiling slows search by %.1f%% (off %.0f ns/op, on %.0f ns/op) — past the 25%% smoke fence",
			100*(onNs-offNs)/offNs, offNs, onNs)
	}

	// Liveness: a profiler under load must produce captures carrying
	// every delta kind, and its self-reported overhead must respect
	// the duty-cycle budget (generous 5% fence on the ≤1% target —
	// the gauge excludes the passive CPU window by design).
	w := benchWorld
	reg := telemetry.NewRegistry()
	ecfg := core.DefaultConfig()
	ecfg.DefaultDetourLimit = w.Scale.DetourLimit
	ecfg.Telemetry = reg
	ecfg.Profiling = profile.New(profile.Config{Registry: reg, CPUWindow: 50 * time.Millisecond})
	ecfg.ProfileInterval = time.Millisecond
	eng, err := core.NewEngine(w.Disc, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sys := &sim.XARSystem{Engine: eng}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		_, _ = sys.Search(benchRequest(w, w.Trips, i), 0)
		if c, ok := eng.Profiler().Newest(); ok && c.ID >= 2 {
			break
		}
	}
	c, ok := eng.Profiler().Newest()
	if !ok || c.ID < 2 {
		t.Fatal("profiler produced fewer than 2 captures under 10 s of load")
	}
	for _, kind := range []string{profile.KindHeapInuse, profile.KindHeapAlloc, profile.KindMutex, profile.KindBlock} {
		if c.Folded(kind) == nil {
			t.Errorf("capture %d missing %s fold", c.ID, kind)
		}
	}
	if n := reg.Counter(profile.CapturesTotalName, "", nil).Value(); n < 2 {
		t.Errorf("%s = %v, want >= 2", profile.CapturesTotalName, n)
	}
	if ratio := reg.Gauge(profile.OverheadRatioName, "", nil).Value(); ratio > 0.05 {
		t.Errorf("profiler self-reported overhead %.3f past the 5%% fence (duty-cycle target is 1%%)", ratio)
	}
}

// BenchmarkMixedWorkloadJournal is the journal's contention benchmark:
// the mixed create/search/book stream of BenchmarkMixedWorkloadParallel
// at GOMAXPROCS 8, with the journal off versus on (every create and book
// appends into the event rings from all goroutines). Recording takes the
// journal's one mutex per event for a sequence number, a ride-ring slot
// and a tail slot; EXPERIMENTS.md records what that lock costs. The
// ≤5% budget is enforced on the serial search path (BenchmarkSearchJournal);
// here the on/off delta is reported, not budgeted: on a single-core CI VM
// the 8-goroutine stream's variance is dominated by preemption churn
// (asyncPreempt alone profiles at ~13% CPU) and journal.Record itself
// profiles under 1%. The onAudit variant adds a background sweeper at a
// 1 s cadence (30× production): each sweep re-derives every live ride's
// detour bound with a full path-length recomputation, so its cost scales
// with the fleet the benchmark has accumulated — a batch cost the cadence
// amortizes, reported here rather than budgeted.
func BenchmarkMixedWorkloadJournal(b *testing.B) {
	w := world(b)
	run := func(b *testing.B, jr *journal.Journal, withAuditor bool) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
		cfg := core.DefaultConfig()
		cfg.DefaultDetourLimit = w.Scale.DetourLimit
		cfg.Journal = jr
		eng, err := core.NewEngine(w.Disc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if withAuditor {
			a := audit.New(audit.Config{
				Target: audit.Target{
					View:    eng.Index(),
					Graph:   w.City.Graph,
					Epsilon: w.Disc.Epsilon(),
					Journal: jr,
				},
				Interval: time.Second,
				Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			a.Start()
			defer a.Stop()
		}
		sys := &sim.XARSystem{Engine: eng}
		offers, requests := w.SplitOffersRequests()
		for _, o := range offers {
			_, _ = sys.Create(sim.Offer{
				Source: o.Pickup, Dest: o.Dropoff,
				Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
			})
		}
		var ctr atomic.Int64
		start := time.Now()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(ctr.Add(1))
				if i%16 == 0 {
					o := offers[i%len(offers)]
					_, _ = sys.Create(sim.Offer{
						Source: o.Pickup, Dest: o.Dropoff,
						Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
					})
					continue
				}
				req := benchRequest(w, requests, i)
				cs, err := sys.Search(req, 0)
				if err == nil && len(cs) > 0 && i%8 == 0 {
					_, _ = sys.Book(cs[0], req)
				}
			}
		})
		b.StopTimer()
		if b.N > 0 {
			qps := float64(b.N) / time.Since(start).Seconds()
			b.ReportMetric(qps, "ops/s")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil, false) })
	b.Run("on", func(b *testing.B) { run(b, journal.New(journal.Config{}), false) })
	b.Run("onAudit", func(b *testing.B) { run(b, journal.New(journal.Config{}), true) })
}

// BenchmarkMixedWorkloadParallel is the contention benchmark: concurrent
// goroutines issue a mixed stream — 1 create per 16 operations, a
// booking attempt after 1 in 8 successful searches, searches otherwise —
// so the index write lock, the optimistic book-commit path and pooled
// path-searchers are all exercised together under b.RunParallel.
func BenchmarkMixedWorkloadParallel(b *testing.B) {
	w := world(b)
	forProcs(b, func(b *testing.B) {
		sys, requests := seededXAR(b, w)
		offers, _ := w.SplitOffersRequests()
		var ctr atomic.Int64
		start := time.Now()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(ctr.Add(1))
				if i%16 == 0 {
					o := offers[i%len(offers)]
					_, _ = sys.Create(sim.Offer{
						Source: o.Pickup, Dest: o.Dropoff,
						Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
					})
					continue
				}
				req := benchRequest(w, requests, i)
				cs, err := sys.Search(req, 0)
				if err == nil && len(cs) > 0 && i%8 == 0 {
					_, _ = sys.Book(cs[0], req)
				}
			}
		})
		b.StopTimer()
		if b.N > 0 {
			qps := float64(b.N) / time.Since(start).Seconds()
			b.ReportMetric(qps, "ops/s")
		}
	})
}
