// Command xarbench regenerates the tables and figures of the XAR paper's
// evaluation (§X). Each -fig value corresponds to an experiment in
// DESIGN.md's index:
//
//	xarbench -fig 3a          # detour approximation error CDF (E1)
//	xarbench -fig 3b          # clusters vs ε (E2)
//	xarbench -fig 3cd         # index memory & search time vs clusters (E3+E4)
//	xarbench -fig 4           # XAR vs T-Share search/create/book (E5–E7)
//	xarbench -fig 5a          # search time vs k (E8)
//	xarbench -fig 5b          # look-to-book sweep (E9)
//	xarbench -fig 6           # taxi vs RS vs PT vs RS+PT (E10)
//	xarbench -fig ablations   # design-choice ablations
//	xarbench -fig all         # everything
//
// Scale flags (-rows, -cols, -requests, -eps, -seed) trade fidelity for
// runtime; the defaults complete in a few minutes.
//
// -parallel N switches to the concurrent-engine throughput mode instead
// of figure replays: N goroutines drive a mixed create/search/book
// workload against a default engine and the run reports QPS plus
// p50/p95/p99 latency per operation from the telemetry histograms (the
// same series /v1/metrics/prom exposes). Combine with GOMAXPROCS to
// sweep the scaling curve recorded in BENCH_parallel.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xar/internal/audit"
	"xar/internal/core"
	"xar/internal/experiments"
	"xar/internal/journal"
	"xar/internal/memsize"
	"xar/internal/profile"
	"xar/internal/quality"
	"xar/internal/sim"
	"xar/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xarbench: ")

	fig := flag.String("fig", "all", "figure to regenerate: 3a|3b|3cd|4|5a|5b|6|ablations|all")
	rows := flag.Int("rows", 40, "city lattice rows (streets)")
	cols := flag.Int("cols", 22, "city lattice columns (avenues)")
	requests := flag.Int("requests", 4000, "trip stream length")
	eps := flag.Float64("eps", 1000, "epsilon in meters (paper: 1 km)")
	seed := flag.Int64("seed", 42, "random seed")
	prom := flag.String("prom", "", "after the run, dump the shared latency histograms in Prometheus text format to this file (\"-\" = stdout)")
	parallel := flag.Int("parallel", 0, "run the concurrent mixed create/search/book workload with this many goroutines instead of figure replays (0 = off)")
	parallelOps := flag.Int("parallel-ops", 0, "total operations for -parallel (0 → 20× -requests)")
	traceOut := flag.String("trace-out", "", "dump the slowest XAR traces as JSON to this file")
	traceTop := flag.Int("trace-top", 20, "how many slowest traces -trace-out keeps")
	historyOut := flag.String("history-out", "", "record the run's telemetry on a 1s wall-clock cadence and write the time-series as JSON to this file")
	auditFlag := flag.Bool("audit", false, "run a journaled replay through the invariant auditor after the workload (in -parallel mode, audit the parallel engine itself) and exit non-zero on any violation")
	qualityFlag := flag.Bool("quality", false, "collect the match-quality funnel across the replayed engines (and shadow counterfactuals at -shadow-sample) and print the summary after the run")
	shadowSample := flag.Int("shadow-sample", 8, "with -quality, shadow-match 1-in-N no-match requests and bookings (0 disables the shadow matcher)")
	chBench := flag.Bool("ch-bench", false, "run the routing head-to-head (plain A* vs ALT vs CH) instead of figure replays")
	chSizes := flag.String("ch-sizes", "20x12,40x22,80x44", "comma-separated ROWSxCOLS city sizes for -ch-bench, smallest to largest")
	chPairs := flag.Int("ch-pairs", 256, "random query pairs per size for -ch-bench")
	chReps := flag.Int("ch-reps", 8, "timing repetitions over the pair set for -ch-bench")
	chOut := flag.String("ch-out", "", "write the -ch-bench JSON report to this file")
	chMinSpeedup := flag.Float64("ch-min-speedup", 0, "exit non-zero unless CH/ALT speedup at the largest -ch-bench size reaches this (0 disables the gate)")
	profileFlag := flag.Bool("profile", true, "profile the run (allocation and contention deltas bracketing the workload) and print the top-5 symbols per kind after it")
	flag.Parse()

	if *chBench {
		runCHBench(*chSizes, *seed, *chPairs, *chReps, *chMinSpeedup, *chOut)
		return
	}

	scale := experiments.DefaultScale()
	scale.CityRows = *rows
	scale.CityCols = *cols
	scale.Requests = *requests
	scale.Epsilon = *eps
	scale.Seed = *seed

	start := time.Now()
	log.Printf("building world: %dx%d city, %d trips, ε=%.0f m, seed %d",
		scale.CityRows, scale.CityCols, scale.Requests, scale.Epsilon, scale.Seed)
	w, err := experiments.BuildWorld(scale)
	if err != nil {
		log.Fatal(err)
	}
	if *prom != "" || *historyOut != "" {
		// The replays then record into the same histogram series a live
		// xarserver exposes at /v1/metrics/prom — one telemetry source
		// for figure reproduction and serving.
		w.Telemetry = telemetry.NewRegistry()
	}
	var rec *telemetry.Recorder
	if *historyOut != "" {
		// Wall-clock cadence: figure replays run in real time, so a 1s
		// tick captures how latency and throughput evolve over the run.
		rec = telemetry.NewRecorder(w.Telemetry, telemetry.RecorderConfig{
			Interval:  time.Second,
			Retention: 2 * time.Hour,
		})
		rec.Start()
		defer func() {
			rec.Stop()
			rec.TickNow()
			if err := experiments.DumpHistory(rec, *historyOut); err != nil {
				log.Fatal(err)
			}
		}()
	}
	if *traceOut != "" {
		// Head-sample at the production default under the high-volume
		// replays; the slow side-ring still keeps every outlier past
		// 5 ms, which is what -trace-out exists to capture.
		w.Tracer = telemetry.NewTracer(telemetry.TracerConfig{
			SampleRate:    64,
			SlowThreshold: 5 * time.Millisecond,
		})
	}
	log.Printf("world ready in %v: %d road nodes, %d landmarks, %d clusters (measured ε=%.0f m)",
		time.Since(start).Round(time.Millisecond),
		w.City.Graph.NumNodes(), len(w.Disc.Landmarks), w.Disc.NumClusters(), w.Disc.Epsilon())

	printProfile := func() {}
	if *profileFlag {
		// Bracket the workload with captures: the cumulative kinds
		// (heap_alloc, mutex, block) delta between them, so the summary
		// attributes the replays alone — world building lands in the
		// discarded baseline. The CPU window is disabled; a post-run
		// window would sample idle.
		prof := profile.New(profile.Config{CPUWindow: -1, Logf: log.Printf})
		prof.CaptureNow()
		printProfile = func() {
			c := prof.CaptureNow()
			if c == nil {
				return
			}
			lines := profile.SummaryLines(c, 5)
			if len(lines) == 0 {
				return
			}
			fmt.Printf("\n--- profile (run delta) ---\n")
			for _, l := range lines {
				fmt.Printf("  %s\n", l)
			}
		}
	}

	if *parallel > 0 {
		ops := *parallelOps
		if ops <= 0 {
			ops = 20 * scale.Requests
		}
		if w.Telemetry == nil {
			w.Telemetry = telemetry.NewRegistry()
		}
		if *auditFlag {
			w.Journal = journal.New(journal.Config{})
		}
		if *qualityFlag {
			// Registered into the shared registry, so -prom dumps carry
			// the funnel series alongside the latency histograms.
			w.Quality = quality.New(w.Telemetry)
			w.ShadowSampleRate = *shadowSample
		}
		// Component accounting for the parallel engine: one on-demand
		// sweep after the workload attributes the retained bytes (and the
		// -prom dump then carries the xar_memsize_bytes gauges too).
		w.Memory = memsize.NewRegistry()
		eng, err := runParallel(w, *parallel, ops)
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		if rep := eng.MemSweep(); rep != nil {
			parts := make([]string, 0, len(rep.Components))
			for _, c := range rep.Components {
				parts = append(parts, fmt.Sprintf("%s=%.1fMB", c.Name, float64(c.Bytes)/(1<<20)))
			}
			log.Printf("memory: %d rides, %.0f rides/GB of index; %s",
				rep.ActiveRides, rep.RidesPerGB, strings.Join(parts, " "))
		}
		printProfile()
		if *auditFlag {
			runAudit(w, eng)
		}
		if w.Quality != nil {
			eng.ShadowFlush()
			experiments.WriteQuality(os.Stdout, w.Quality.Snapshot())
		}
		if *prom != "" {
			if err := dumpProm(w.Telemetry, *prom); err != nil {
				log.Fatal(err)
			}
		}
		if *traceOut != "" {
			if err := experiments.DumpTraces(w.Tracer, *traceOut, *traceTop); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	if *qualityFlag {
		// One collector shared by every engine the figure replays build,
		// so the printed funnel aggregates the whole run. The replays'
		// engines are internal to the experiments package and outlive the
		// summary unflushed, so a handful of shadow tasks may still be in
		// flight when it prints — counters are cumulative lower bounds.
		w.Quality = quality.New(w.Telemetry)
		w.ShadowSampleRate = *shadowSample
	}

	figs := strings.Split(*fig, ",")
	if *fig == "all" {
		figs = []string{"3a", "3b", "3cd", "4", "5a", "5b", "6", "ablations"}
	}
	for _, f := range figs {
		if err := run(w, strings.TrimSpace(f)); err != nil {
			log.Fatalf("fig %s: %v", f, err)
		}
	}
	printProfile()
	if w.Quality != nil {
		experiments.WriteQuality(os.Stdout, w.Quality.Snapshot())
	}

	if *prom != "" {
		if err := dumpProm(w.Telemetry, *prom); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		if err := experiments.DumpTraces(w.Tracer, *traceOut, *traceTop); err != nil {
			log.Fatal(err)
		}
	}
	if *auditFlag {
		// Figure replays build their own engines internally, so the
		// correctness gate runs one additional journaled replay of the
		// full trip stream and audits that engine.
		aw := *w
		aw.Telemetry, aw.Tracer = nil, nil
		aw.Journal = journal.New(journal.Config{})
		eng, err := aw.NewXAREngine()
		if err != nil {
			log.Fatal(err)
		}
		acfg := sim.DefaultConfig()
		acfg.WalkLimit = aw.Scale.WalkLimit
		acfg.DetourLimit = aw.Scale.DetourLimit
		if _, err := sim.Run(&sim.XARSystem{Engine: eng}, aw.Trips, acfg); err != nil {
			log.Fatal(err)
		}
		runAudit(&aw, eng)
	}
}

// runAudit sweeps the engine with a synchronous invariant audit and
// exits non-zero on any violation — the xarbench side of the CI
// correctness gate.
func runAudit(w *experiments.World, eng *core.Engine) {
	auditor := audit.New(audit.Config{Target: audit.Target{
		View:    eng.Index(),
		Graph:   w.Disc.City().Graph,
		Epsilon: w.Disc.Epsilon(),
		Journal: w.Journal,
		Quality: w.Quality,
	}})
	rep := auditor.Audit()
	log.Printf("audit: checked %d live rides + %d journaled timelines in %.1f ms",
		rep.RidesChecked, rep.JournalRides, rep.DurationSeconds*1e3)
	if !rep.Clean() {
		for _, v := range rep.Violations {
			log.Printf("audit: VIOLATION [%s] ride %d: %s", v.Invariant, v.Ride, v.Detail)
		}
		log.Fatalf("audit: %d invariant violation(s) — failing", len(rep.Violations))
	}
	log.Printf("audit: all invariants hold (0 violations)")
}

// dumpProm writes the registry in Prometheus text format to path
// ("-" = stdout).
func dumpProm(reg *telemetry.Registry, path string) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := reg.WritePrometheus(out); err != nil {
		return err
	}
	if path != "-" {
		log.Printf("telemetry exposition written to %s", path)
	}
	return nil
}

// runParallel is the standalone form of BenchmarkMixedWorkloadParallel:
// `workers` goroutines drive a mixed stream — 1 create per 16
// operations, a booking attempt after 1 in 8 successful searches,
// searches otherwise — against a default-configuration engine preloaded
// with the world's offers. Throughput comes from wall time; latency
// quantiles come from the xar_op_duration_seconds telemetry
// histograms the engine records into (the same series xarserver exposes
// at /v1/metrics/prom).
func runParallel(w *experiments.World, workers, ops int) (*core.Engine, error) {
	cfg := core.DefaultConfig()
	cfg.DefaultDetourLimit = w.Scale.DetourLimit
	cfg.Telemetry = w.Telemetry
	cfg.Tracer = w.Tracer
	cfg.Journal = w.Journal
	cfg.Quality = w.Quality
	if w.Quality != nil {
		cfg.ShadowSampleRate = w.ShadowSampleRate
	}
	cfg.Memory = w.Memory
	eng, err := core.NewEngine(w.Disc, cfg)
	if err != nil {
		return nil, err
	}
	sys := &sim.XARSystem{Engine: eng}
	offers, requests := w.SplitOffersRequests()
	for _, o := range offers {
		_, _ = sys.Create(sim.Offer{
			Source: o.Pickup, Dest: o.Dropoff,
			Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
		})
	}
	log.Printf("parallel mode: %d goroutines, %d ops, GOMAXPROCS=%d, %d seeded rides",
		workers, ops, runtime.GOMAXPROCS(0), eng.NumRides())

	var next, searches, matched, creates, bookings atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i > ops {
					return
				}
				if i%16 == 0 {
					o := offers[i%len(offers)]
					_, _ = sys.Create(sim.Offer{
						Source: o.Pickup, Dest: o.Dropoff,
						Departure: o.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
					})
					creates.Add(1)
					continue
				}
				t := requests[i%len(requests)]
				req := sim.Request{
					Source: t.Pickup, Dest: t.Dropoff,
					Earliest: t.RequestTime, Latest: t.RequestTime + w.Scale.WindowSlack,
					WalkLimit: w.Scale.WalkLimit,
				}
				cs, err := sys.Search(req, 0)
				searches.Add(1)
				if err != nil || len(cs) == 0 {
					continue
				}
				matched.Add(1)
				if i%8 == 0 {
					if _, err := sys.Book(cs[0], req); err == nil {
						bookings.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	type quantiles struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
	}
	res := struct {
		Workers     int                  `json:"workers"`
		Gomaxprocs  int                  `json:"gomaxprocs"`
		Ops         int64                `json:"ops"`
		WallSeconds float64              `json:"wall_seconds"`
		QPS         float64              `json:"qps"`
		Searches    int64                `json:"searches"`
		Matched     int64                `json:"searches_with_matches"`
		Creates     int64                `json:"creates"`
		Bookings    int64                `json:"bookings"`
		Latency     map[string]quantiles `json:"latency_seconds"`
	}{
		Workers:     workers,
		Gomaxprocs:  runtime.GOMAXPROCS(0),
		Ops:         next.Load() - int64(workers), // each goroutine overshoots by one
		WallSeconds: wall.Seconds(),
		Searches:    searches.Load(),
		Matched:     matched.Load(),
		Creates:     creates.Load(),
		Bookings:    bookings.Load(),
		Latency:     map[string]quantiles{},
	}
	if res.Ops > int64(ops) {
		res.Ops = int64(ops)
	}
	res.QPS = float64(res.Ops) / wall.Seconds()
	for _, op := range []string{"search", "create", "book"} {
		h := telemetry.OpDuration(w.Telemetry, op)
		if h.Count() == 0 {
			continue // empty histogram: quantiles are undefined
		}
		res.Latency[op] = quantiles{
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return eng, enc.Encode(res)
}

func run(w *experiments.World, fig string) error {
	start := time.Now()
	defer func() {
		fmt.Printf("(fig %s took %v)\n\n", fig, time.Since(start).Round(time.Millisecond))
	}()
	switch fig {
	case "3a":
		r, err := experiments.Fig3a(w)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
		fmt.Println("error histogram (meters):")
		fmt.Println(r.Errors.Histogram(12, 40))

	case "3b":
		rows, err := experiments.Fig3b(w, []float64{400, 600, 800, 1000, 1400, 2000, 2800, 4000})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig3b(rows))

	case "3cd":
		rows, err := experiments.Fig3cd(w, []float64{600, 1000, 1600, 2400})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig3cd(rows))

	case "4":
		r, err := experiments.Fig4(w)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
		fmt.Printf("XAR mean-search speedup over T-Share: %.1fx\n", r.SearchSpeedup())

	case "5a":
		rows, err := experiments.Fig5a(w, []int{1, 2, 5, 10, 15, 20, 25})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig5a(rows))

	case "5b":
		rows, err := experiments.Fig5b(w, []int{1, 5, 10, 50, 100, 500, 1000})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig5b(rows))

	case "6":
		r, err := experiments.Fig6(w)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())

	case "ablations":
		a, err := experiments.AblationSortedLists(w)
		if err != nil {
			return err
		}
		b, err := experiments.AblationReachablePrecompute(w)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderAblations([]experiments.AblationRow{a, b}))

	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", fig)
		os.Exit(2)
	}
	return nil
}
