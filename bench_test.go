// Benchmarks timing the paper's evaluation operations (§X). Each
// BenchmarkFigN* times the loop of one experiment in DESIGN.md's index
// (E5–E9); cmd/xarbench -fig regenerates every table and figure, E1–E10,
// with configurable scale. Ablation benchmarks time the design choices
// DESIGN.md calls out that measure their own loops.
package xar

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xar/internal/audit"
	"xar/internal/core"
	"xar/internal/experiments"
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/profile"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/sim"
	"xar/internal/telemetry"
	"xar/internal/tshare"
	"xar/internal/workload"
)

var (
	benchOnce  sync.Once
	benchWorld *experiments.World
	benchErr   error
)

// world lazily builds the shared benchmark world: a mid-size city and
// trip stream reused across benchmarks and the exact work counts.
func world(tb testing.TB) *experiments.World {
	tb.Helper()
	benchOnce.Do(func() {
		s := experiments.DefaultScale()
		s.CityRows = 30
		s.CityCols = 16
		s.Requests = 1500
		benchWorld, benchErr = experiments.BuildWorld(s)
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchWorld
}

// seededXAR returns an XAR system preloaded with the world's offers.
func seededXAR(tb testing.TB, w *experiments.World) (*sim.XARSystem, []workload.Trip) {
	tb.Helper()
	eng, err := w.NewXAREngine()
	if err != nil {
		tb.Fatal(err)
	}
	sys := &sim.XARSystem{Engine: eng}
	offers, requests := w.SplitOffersRequests()
	offerAll(sys, w, offers)
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
	offerAll(sys, w, offers)
	return sys, requests
}

// offerAll creates a four-seat ride for every trip, leaving at its
// request time.
func offerAll(sys sim.System, w *experiments.World, trips []workload.Trip) {
	for _, t := range trips {
		_, _ = sys.Create(sim.Offer{
			Source: t.Pickup, Dest: t.Dropoff,
			Departure: t.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
}

func benchRequest(w *experiments.World, trips []workload.Trip, i int) sim.Request {
	t := trips[i%len(trips)]
	return sim.Request{
		Source: t.Pickup, Dest: t.Dropoff,
		Earliest: t.RequestTime, Latest: t.RequestTime + w.Scale.WindowSlack,
		WalkLimit: w.Scale.WalkLimit,
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

// BenchmarkFig4bCreateXAR / TShare — E6: ride/taxi creation, into a
// fleet of the world's size whatever b.N (see createLoop).
func BenchmarkFig4bCreateXAR(b *testing.B) {
	w := world(b)
	eng, err := w.NewXAREngine()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	createLoop(b, w, &sim.XARSystem{Engine: eng}, func(id int64) { eng.CompleteRide(index.RideID(id)) })
}

func BenchmarkFig4bCreateTShare(b *testing.B) {
	w := world(b)
	eng, err := w.NewTShare(false)
	if err != nil {
		b.Fatal(err)
	}
	createLoop(b, w, &sim.TShareSystem{Engine: eng}, func(id int64) { eng.Remove(tshare.TaxiID(id)) })
}

// createLoop times b.N creations of the world's trips in turn. The fleet
// is filled to the world's size first, and whenever a tenth of that has
// been created on top, as many of the oldest rides are retired, both off
// the timer; a fleet that grew with b.N would make ns/op a function of
// b.N (T-Share's cell lists, sorted arrays, grow with it).
func createLoop(b *testing.B, w *experiments.World, sys sim.System, retire func(int64)) {
	b.Helper()
	n := len(w.Trips)
	batch := max(1, n/10)
	var fleet []int64
	create := func(i int) {
		t := w.Trips[i%n]
		if id, err := sys.Create(sim.Offer{
			Source: t.Pickup, Dest: t.Dropoff,
			Departure: t.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		}); err == nil {
			fleet = append(fleet, id)
		}
	}
	for i := range n {
		create(i)
	}
	base := len(fleet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(fleet) >= base+batch {
			b.StopTimer()
			for _, id := range fleet[:batch] {
				retire(id)
			}
			fleet = fleet[batch:]
			b.StartTimer()
		}
		create(i)
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
	b.ResetTimer()
	bookLoop(b, b.N, w, sys, requests)
}

// stopwatch is what bookLoop brackets its untimed work with: a
// *testing.B, or a mallocMeter counting the allocations in between.
type stopwatch interface {
	StartTimer()
	StopTimer()
}

// bookLoop books n matches with sw running only across the bookings.
// Call it with sw running.
func bookLoop(sw stopwatch, n int, w *experiments.World, sys sim.System, requests []workload.Trip) {
	booked := 0
	for i := 0; booked < n; i++ {
		req := benchRequest(w, requests, i)
		sw.StopTimer()
		cands, _ := sys.Search(req, 1)
		if len(cands) == 0 {
			// Become a driver, like the paper's simulation protocol.
			_, _ = sys.Create(sim.Offer{
				Source: req.Source, Dest: req.Dest,
				Departure: req.Earliest + (req.Latest-req.Earliest)/2,
				Seats:     4, DetourLimit: w.Scale.DetourLimit,
			})
			sw.StartTimer()
			continue
		}
		sw.StartTimer()
		if _, err := sys.Book(cands[0], req); err == nil {
			booked++
		}
	}
}

// BenchmarkFig5aSearchK — E8: search latency for k matches; XAR flat,
// T-Share (haversine mode) ~linear in k.
func BenchmarkFig5aSearchK_XAR_k1(b *testing.B)     { fig5a(b, true, 1) }
func BenchmarkFig5aSearchK_XAR_k25(b *testing.B)    { fig5a(b, true, 25) }
func BenchmarkFig5aSearchK_TShare_k1(b *testing.B)  { fig5a(b, false, 1) }
func BenchmarkFig5aSearchK_TShare_k25(b *testing.B) { fig5a(b, false, 25) }

// seededFig5 returns the seeded XAR system, or T-Share in haversine mode.
func seededFig5(b *testing.B, w *experiments.World, xar bool) (sim.System, []workload.Trip) {
	if xar {
		return seededXAR(b, w)
	}
	return seededTShare(b, w, true)
}

func fig5a(b *testing.B, xar bool, k int) {
	w := world(b)
	sys, requests := seededFig5(b, w, xar)
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
	sys, requests := seededFig5(b, w, xar)
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

// --- Ablations (DESIGN.md §4) ---

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
	reportRate(b, start, "searches/s")
}

// reportRate stops the timer and reports b.N operations since start as
// a rate.
func reportRate(b *testing.B, start time.Time, unit string) {
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), unit)
	}
}

// BenchmarkSearchDense measures the search whose cost is per-candidate
// work, which the earliest-fifth split of the benchmarks above never
// reaches (most of their searches match nothing): one hour of trips,
// every fifth a ride and the rest requests — the split of the repository
// benchmark's search_dense workload — on the default engine, so a search
// examines hundreds of candidates and returns dozens of matches. Its
// allocations per search are TestExactWorkCounts' search_dense_allocs.
func BenchmarkSearchDense(b *testing.B) {
	eng, reqs := denseFleet(b, world(b))
	matches := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, _ := eng.Search(reqs[i%len(reqs)])
		matches += len(ms)
	}
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
}

// denseFleet builds BenchmarkSearchDense's engine and the requests it
// searches with.
func denseFleet(tb testing.TB, w *experiments.World) (*core.Engine, []core.Request) {
	tb.Helper()
	wcfg := workload.DefaultConfig(5000, w.Scale.Seed+2)
	wcfg.StartHour, wcfg.EndHour = 8, 9
	trips, err := workload.Generate(w.City, wcfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.NewEngine(w.Disc, core.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
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
	}
	return eng, reqs
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
// the read lock).
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
		reportRate(b, start, "searches/s")
	})
}

// observerArm is one configuration of BenchmarkSearchObservers. Every
// arm but bare starts from a telemetry registry; configure adds the
// observer before the engine is built, attach starts what runs beside
// it. OBSERVABILITY.md "Overhead budgets" lists every budget.
type observerArm struct {
	name, baseline string
	budget         float64 // max ns/op over the baseline's; 0 = reported only
	configure      func(cfg *core.Config)
	attach         func(w *experiments.World, cfg core.Config, eng *core.Engine) (stop func())
}

// Cadences are far above production (recorder 5 ms vs 10 s, auditor
// 50 ms vs 30 s, memsize 1 ms vs 30 s, profiler 1 ms vs 60 s) so each
// arm bounds its observer's interference; the sweeper and profiler
// then run as fast as their duty-cycle floors allow. The profiler's
// 50 ms CPU window completes a cycle every ≈ 450 ms, several per run.
// The shadow matcher's work has nowhere to hide on two vCPUs, hence
// its own bound over quality.
var observerArms = []observerArm{
	{name: "bare", configure: func(cfg *core.Config) { cfg.Telemetry = nil }},
	{name: "telemetry", baseline: "bare", budget: 1.05},
	{name: "tracing_head16", baseline: "telemetry", configure: withTracer(16)},
	{name: "tracing_head32", baseline: "telemetry", configure: withTracer(32)},
	{name: "tracing_head64", baseline: "telemetry", budget: 1.10, configure: withTracer(64)},
	{name: "tracing_always", baseline: "telemetry", configure: withTracer(1)},
	{name: "recorder", baseline: "telemetry", budget: 1.05,
		attach: func(_ *experiments.World, cfg core.Config, _ *core.Engine) func() {
			rec := telemetry.NewRecorder(cfg.Telemetry,
				telemetry.RecorderConfig{Interval: 5 * time.Millisecond, Retention: 10 * time.Second})
			rec.Start()
			return rec.Stop
		}},
	{name: "journal", baseline: "telemetry", budget: 1.05, configure: withJournal},
	{name: "journal_audit", baseline: "telemetry", budget: 1.05, configure: withJournal,
		attach: func(w *experiments.World, cfg core.Config, eng *core.Engine) func() {
			return startAuditor(w, eng, cfg.Journal, 50*time.Millisecond)
		}},
	{name: "quality", baseline: "telemetry", budget: 1.05, configure: func(cfg *core.Config) {
		cfg.Quality = quality.New(nil)
	}},
	{name: "quality_shadow", baseline: "quality", budget: 3.5, configure: func(cfg *core.Config) {
		cfg.Quality, cfg.ShadowSampleRate = quality.New(nil), 8
	}},
	{name: "memsize", baseline: "telemetry", budget: 1.05,
		attach: func(_ *experiments.World, _ core.Config, eng *core.Engine) func() {
			return startMemSweeper(eng)
		}},
	{name: "profiling", baseline: "telemetry", budget: 1.05,
		attach: func(_ *experiments.World, cfg core.Config, _ *core.Engine) func() {
			return startProfiler(cfg.Telemetry).Close
		}},
}

func withTracer(rate int) func(*core.Config) {
	return func(cfg *core.Config) {
		cfg.Tracer = telemetry.NewTracer(telemetry.TracerConfig{SampleRate: rate})
	}
}

func withJournal(cfg *core.Config) { cfg.Journal = journal.New(journal.Config{}) }

// startMemSweeper sweeps eng's memory components at the arms' 1 ms
// cadence, duty-cycled as xarserver's sweeper is, until the returned
// stop is called.
func startMemSweeper(eng *core.Engine) (stop func()) {
	var w telemetry.Worker
	w.Start(time.Millisecond, func() time.Duration {
		start := time.Now()
		eng.MemSweep()
		return telemetry.Throttle(time.Millisecond, time.Since(start))
	})
	return w.Stop
}

// startProfiler starts a continuous profiler recording into reg at the
// arms' 1 ms cadence; the caller closes it.
func startProfiler(reg *telemetry.Registry) *profile.Profiler {
	p := profile.New(profile.Config{Registry: reg, CPUWindow: 50 * time.Millisecond})
	p.Start(time.Millisecond)
	return p
}

// startAuditor sweeps eng's index and jr every interval until the
// returned stop is called.
func startAuditor(w *experiments.World, eng *core.Engine, jr *journal.Journal, interval time.Duration) (stop func()) {
	a := audit.New(audit.Config{
		Target: audit.Target{
			View:    eng.Index(),
			Graph:   w.City.Graph,
			Epsilon: w.Disc.Epsilon(),
			Journal: jr,
		},
		Interval: interval,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	a.Start()
	return a.Stop
}

// observerEngine builds the engine arm measures, its observers
// configured but not yet attached.
func observerEngine(tb testing.TB, w *experiments.World, arm observerArm) (*core.Engine, core.Config) {
	cfg := core.DefaultConfig()
	cfg.DefaultDetourLimit = w.Scale.DetourLimit
	cfg.Telemetry = telemetry.NewRegistry()
	if arm.configure != nil {
		arm.configure(&cfg)
	}
	eng, err := core.NewEngine(w.Disc, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, cfg
}

func runObserverArm(b *testing.B, arm observerArm) {
	w := world(b)
	eng, cfg := observerEngine(b, w, arm)
	defer eng.Close()
	if arm.attach != nil {
		defer arm.attach(w, cfg, eng)()
	}
	sys := &sim.XARSystem{Engine: eng}
	offers, requests := w.SplitOffersRequests()
	offerAll(sys, w, offers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sys.Search(benchRequest(w, requests, i), 0)
	}
}

// BenchmarkSearchObservers prices every observer on the loaded search
// hot path: one sub-benchmark per observerArms entry, each a fresh
// engine over the same fleet and request stream.
func BenchmarkSearchObservers(b *testing.B) {
	for _, arm := range observerArms {
		b.Run(arm.name, func(b *testing.B) { runObserverArm(b, arm) })
	}
}

// smokeFence is the loosest ratio a budgeted arm may reach. The ≤5% and
// ≤10% budgets are design targets that a shared 2-vCPU host, drifting
// ±20% between runs, cannot resolve; the fence catches a structural
// regression — a lock or a per-candidate allocation on the hot path
// reads as 2×, not 1.05×.
const smokeFence = 1.25

// bareSearchRoofNs is the most the bare arm's best round may take: a
// default-configuration search reads ≈ 300–550 ns, and the roof trips
// on what 16 ride-ID stripes cost it (≈ 1 800 ns).
const bareSearchRoofNs = 1000

// TestObserverOverheadSmoke is the live fence behind `make
// bench-observers-smoke`: every arm runs in three interleaved rounds,
// a budgeted arm fails when its best round over its baseline's best
// exceeds max(budget, smokeFence), and the bare arm fails past
// bareSearchRoofNs. It then checks that memory accounting explains the
// live heap and that the profiler captured, so neither arm measured a
// no-op.
// Gated behind XAR_OBSERVER_SMOKE=1 so `go test ./...` stays fast.
func TestObserverOverheadSmoke(t *testing.T) {
	if os.Getenv("XAR_OBSERVER_SMOKE") == "" {
		t.Skip("set XAR_OBSERVER_SMOKE=1 to run the observer overhead fence")
	}
	const rounds = 3
	best := map[string]float64{}
	for i := 0; i < rounds; i++ {
		for _, arm := range observerArms {
			ns := float64(testing.Benchmark(func(b *testing.B) { runObserverArm(b, arm) }).NsPerOp())
			if prev, ok := best[arm.name]; !ok || ns < prev {
				best[arm.name] = ns
			}
		}
	}
	t.Logf("%-15s %5.0f ns/op (roof %d)", "bare", best["bare"], bareSearchRoofNs)
	if best["bare"] > bareSearchRoofNs {
		t.Errorf("bare search takes %.0f ns/op, past its %d ns roof", best["bare"], bareSearchRoofNs)
	}
	for _, arm := range observerArms {
		if arm.baseline == "" {
			continue
		}
		on, off := best[arm.name], best[arm.baseline]
		fence := max(arm.budget, smokeFence)
		t.Logf("%-15s %5.0f ns/op over %-9s %5.0f: ratio %.3f (budget %.2f)",
			arm.name, on, arm.baseline, off, on/off, arm.budget)
		if arm.budget > 0 && on > off*fence {
			t.Errorf("%s slows search to %.3f× %s (%.0f vs %.0f ns/op), past its %.2f fence",
				arm.name, on/off, arm.baseline, on, off, fence)
		}
	}

	// Coverage: a loaded accounting engine's tracked component total must
	// explain the live heap within 20% once transient garbage is swept.
	w := benchWorld
	ecfg := core.DefaultConfig()
	ecfg.DefaultDetourLimit = w.Scale.DetourLimit
	ecfg.Journal = journal.New(journal.Config{})
	eng, err := core.NewEngine(w.Disc, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	offerAll(&sim.XARSystem{Engine: eng}, w, w.Trips)
	runtime.GC()
	rep := eng.MemSweep()
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

	// Liveness: a profiler under load must produce captures carrying
	// every delta kind, and its self-reported overhead must respect
	// the duty-cycle budget (generous 5% fence on the ≤1% target —
	// the gauge excludes the passive CPU window by design).
	peng, pcfg := observerEngine(t, w, observerArm{})
	defer peng.Close()
	reg := pcfg.Telemetry
	prof := startProfiler(reg)
	defer prof.Close()
	sys := &sim.XARSystem{Engine: peng}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		_, _ = sys.Search(benchRequest(w, w.Trips, i), 0)
		if c, ok := prof.Newest(); ok && c.ID >= 2 {
			break
		}
	}
	c, ok := prof.Newest()
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

// mixedStream drives sys from b.RunParallel goroutines with the mixed
// stream — 1 create per 16 operations, a booking attempt after 1 in 8
// successful searches, searches otherwise — and reports ops/s.
func mixedStream(b *testing.B, w *experiments.World, sys *sim.XARSystem, offers, requests []workload.Trip) {
	var ctr atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			if i%16 == 0 {
				offerAll(sys, w, offers[i%len(offers):][:1])
				continue
			}
			req := benchRequest(w, requests, i)
			cs, err := sys.Search(req, 0)
			if err == nil && len(cs) > 0 && i%8 == 0 {
				_, _ = sys.Book(cs[0], req)
			}
		}
	})
	reportRate(b, start, "ops/s")
}

// BenchmarkMixedWorkloadJournal is the journal's contention benchmark:
// the mixed stream at GOMAXPROCS 8 with the journal off versus on, every
// create and book taking the journal's one mutex per event
// (EXPERIMENTS.md records what that lock costs). The delta is reported,
// not budgeted — the budget is BenchmarkSearchObservers/journal's — as
// 8 goroutines on few cores are dominated by preemption churn. onAudit
// adds a 1 s sweeper (30× production), whose cost grows with the fleet
// the run accumulates.
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
			defer startAuditor(w, eng, jr, time.Second)()
		}
		sys := &sim.XARSystem{Engine: eng}
		offers, requests := w.SplitOffersRequests()
		offerAll(sys, w, offers)
		mixedStream(b, w, sys, offers, requests)
	}
	b.Run("off", func(b *testing.B) { run(b, nil, false) })
	b.Run("on", func(b *testing.B) { run(b, journal.New(journal.Config{}), false) })
	b.Run("onAudit", func(b *testing.B) { run(b, journal.New(journal.Config{}), true) })
}

// BenchmarkMixedWorkloadParallel is the contention benchmark: the mixed
// stream from concurrent goroutines at each GOMAXPROCS step, so the
// index write lock, the optimistic book-commit path and pooled
// path-searchers are all exercised together under b.RunParallel.
func BenchmarkMixedWorkloadParallel(b *testing.B) {
	w := world(b)
	forProcs(b, func(b *testing.B) {
		sys, requests := seededXAR(b, w)
		offers, _ := w.SplitOffersRequests()
		mixedStream(b, w, sys, offers, requests)
	})
}
