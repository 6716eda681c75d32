// Command xarsim runs the paper's ride-share simulation (§X-A2) over a
// synthetic city and demand stream, on XAR or on the T-Share baseline,
// and prints throughput, match quality and latency statistics:
//
//	xarsim -system xar -requests 10000
//	xarsim -system tshare -requests 10000
//	xarsim -system both -requests 10000 -k 5 -looktobook 10
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
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
	log.SetPrefix("xarsim: ")

	system := flag.String("system", "xar", "system to simulate: xar|tshare|both")
	rows := flag.Int("rows", 40, "city lattice rows")
	cols := flag.Int("cols", 22, "city lattice columns")
	requests := flag.Int("requests", 5000, "trip stream length")
	eps := flag.Float64("eps", 1000, "epsilon in meters")
	seed := flag.Int64("seed", 42, "random seed")
	k := flag.Int("k", 0, "matches per search (0 = all)")
	lookToBook := flag.Int("looktobook", 1, "searches per booking decision")
	walkLimit := flag.Float64("walk", 1000, "walking limit in meters")
	detour := flag.Float64("detour", 2000, "detour limit in meters")
	traceOut := flag.String("trace-out", "", "dump the slowest XAR traces as JSON to this file")
	traceTop := flag.Int("trace-top", 20, "how many slowest traces -trace-out keeps")
	historyOut := flag.String("history-out", "", "record the XAR replay's telemetry on the simulated clock and write the time-series as JSON to this file (regenerates the latency-over-time curves behind figures 3a-3d)")
	historyInterval := flag.Float64("history-interval", 60, "simulated seconds between -history-out snapshots")
	auditFlag := flag.Bool("audit", false, "journal the XAR replay's ride-lifecycle events, sweep the invariant auditor on the simulated clock, run a full synchronous audit after the replay, and exit non-zero on any violation")
	auditInterval := flag.Float64("audit-interval", 300, "simulated seconds between -audit sweeps during the replay")
	qualityFlag := flag.Bool("quality", false, "collect the XAR replay's match-quality funnel (and shadow counterfactuals at -shadow-sample) and print the summary after the run")
	shadowSample := flag.Int("shadow-sample", 8, "with -quality, shadow-match 1-in-N no-match requests and bookings (0 disables the shadow matcher)")
	memFlag := flag.Bool("mem", true, "account per-component memory on the XAR engine and print the breakdown + rides/GB after the replay (sweeps run on demand only, never during the replay)")
	profileFlag := flag.Bool("profile", true, "profile the XAR replay (allocation and contention deltas bracketing the run) and print the top-5 symbols per kind after it")
	flag.Parse()

	scale := experiments.DefaultScale()
	scale.CityRows = *rows
	scale.CityCols = *cols
	scale.Requests = *requests
	scale.Epsilon = *eps
	scale.Seed = *seed
	scale.WalkLimit = *walkLimit
	scale.DetourLimit = *detour

	start := time.Now()
	w, err := experiments.BuildWorld(scale)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("world ready in %v: %d landmarks, %d clusters, ε=%.0f m",
		time.Since(start).Round(time.Millisecond),
		len(w.Disc.Landmarks), w.Disc.NumClusters(), w.Disc.Epsilon())

	cfg := sim.DefaultConfig()
	cfg.K = *k
	cfg.LookToBook = *lookToBook
	cfg.WalkLimit = *walkLimit
	cfg.DetourLimit = *detour

	if *system == "xar" || *system == "both" {
		if *traceOut != "" {
			// Trace every replayed op; the ring keeps recent traffic and
			// the slow side-ring guarantees the outliers survive the run.
			w.Tracer = telemetry.NewTracer(telemetry.TracerConfig{
				SampleRate:    1,
				SlowThreshold: 5 * time.Millisecond,
			})
		}
		xcfg := cfg
		var rec *telemetry.Recorder
		if *historyOut != "" {
			// The replay records into sim-level histograms and the
			// recorder ticks on simulated time (trip request stamps), so
			// retention is sized to the stream's simulated span — a
			// multi-hour demand day fits regardless of replay speed.
			reg := telemetry.NewRegistry()
			interval := time.Duration(*historyInterval * float64(time.Second))
			span := time.Duration(0)
			if n := len(w.Trips); n > 0 {
				span = time.Duration((w.Trips[n-1].RequestTime - w.Trips[0].RequestTime) * float64(time.Second))
			}
			rec = telemetry.NewRecorder(reg, telemetry.RecorderConfig{
				Interval:  interval,
				Retention: span + 3*interval,
			})
			xcfg.Telemetry = reg
			xcfg.Recorder = rec
		}
		if *auditFlag {
			w.Journal = journal.New(journal.Config{})
		}
		if *qualityFlag {
			w.Quality = quality.New(nil)
			w.ShadowSampleRate = *shadowSample
		}
		if *memFlag {
			w.Memory = memsize.NewRegistry()
		}
		eng, err := w.NewXAREngine()
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		var auditor *audit.Auditor
		if *auditFlag {
			auditor = audit.New(audit.Config{Target: audit.Target{
				View:    eng.Index(),
				Graph:   w.Disc.City().Graph,
				Epsilon: w.Disc.Epsilon(),
				Journal: w.Journal,
				Quality: w.Quality,
			}})
			xcfg.Auditor = auditor
			xcfg.AuditInterval = *auditInterval
		}
		var prof *profile.Profiler
		if *profileFlag {
			// Bracket the replay with captures: the cumulative kinds
			// (heap_alloc, mutex, block) delta between them, so the
			// summary attributes the replay alone — world building and
			// engine construction land in the discarded baseline. The CPU
			// window is disabled; a post-run window would sample idle.
			prof = profile.New(profile.Config{CPUWindow: -1, Logf: log.Printf})
			prof.CaptureNow()
		}
		report(w, &sim.XARSystem{Engine: eng}, xcfg)
		if prof != nil {
			if c := prof.CaptureNow(); c != nil {
				printProfile(c)
			}
		}
		if w.Quality != nil {
			eng.ShadowFlush()
			experiments.WriteQuality(os.Stdout, w.Quality.Snapshot())
		}
		if rep := eng.MemSweep(); rep != nil {
			printMemory(rep)
		}
		if *traceOut != "" {
			if err := experiments.DumpTraces(w.Tracer, *traceOut, *traceTop); err != nil {
				log.Fatal(err)
			}
		}
		if rec != nil {
			if err := experiments.DumpHistory(rec, *historyOut); err != nil {
				log.Fatal(err)
			}
		}
		if auditor != nil {
			finalAudit(auditor, w.Journal)
		}
	}
	if *system == "tshare" || *system == "both" {
		eng, err := w.NewTShare(false)
		if err != nil {
			log.Fatal(err)
		}
		report(w, &sim.TShareSystem{Engine: eng}, cfg)
	}
}

func report(w *experiments.World, sys sim.System, cfg sim.Config) {
	start := time.Now()
	res, err := sim.Run(sys, w.Trips, cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("\n=== %s ===\n", res.SystemName)
	fmt.Printf("replayed %d requests in %v (%.0f req/s)\n",
		res.Requests, elapsed.Round(time.Millisecond),
		float64(res.Requests)/elapsed.Seconds())
	fmt.Printf("matched %d (%.1f%%), created %d rides, %d unservable, %d stale bookings\n",
		res.Matched, 100*res.MatchRate(), res.Created, res.NotServable, res.FailedBooks)
	fmt.Printf("search  %s\n", res.SearchTimes.Summary("ms"))
	fmt.Printf("create  %s\n", res.CreateTimes.Summary("ms"))
	fmt.Printf("book    %s\n", res.BookTimes.Summary("ms"))
	if res.ApproxErrors.N() > 0 {
		eps := w.Disc.Epsilon()
		fmt.Printf("detour approx error: %s (ε=%.0f m; %.1f%% ≤ ε, %.2f%% ≤ 2ε)\n",
			res.ApproxErrors.Summary("m"), eps,
			100*res.ApproxErrors.CDF(eps), 100*res.ApproxErrors.CDF(2*eps))
	}
	if res.Walks.N() > 0 {
		fmt.Printf("rider walking: %s\n", res.Walks.Summary("m"))
	}
	fmt.Printf("active rides at end: %d\n", sys.ActiveRides())
}

// printMemory prints the post-replay component accounting: which
// subsystem owns the bytes, and the rides-per-GB capacity extrapolation
// the ROADMAP's compaction arc is judged by.
func printMemory(rep *core.MemoryReport) {
	fmt.Printf("\n--- memory ---\n")
	for _, c := range rep.Components {
		fmt.Printf("  %-16s %8.1f MB\n", c.Name, float64(c.Bytes)/(1<<20))
	}
	fmt.Printf("  %-16s %8.1f MB (heap in use %.1f MB, %.0f%% tracked)\n",
		"tracked total", float64(rep.TrackedTotalBytes)/(1<<20),
		float64(rep.Heap.HeapInUseBytes)/(1<<20), 100*rep.Heap.TrackedCoverageRatio)
	fmt.Printf("  %d active rides, %.0f rides/GB of index\n", rep.ActiveRides, rep.RidesPerGB)
	if len(rep.Subsystems) > 0 {
		fmt.Printf("  top allocating subsystems since start:\n")
		for i, s := range rep.Subsystems {
			if i >= 5 {
				break
			}
			fmt.Printf("    %-24s %8.1f MB in use\n", s.Subsystem, float64(s.InUseBytes)/(1<<20))
		}
	}
}

// printProfile prints the replay's profile deltas: for each kind that
// saw samples between the bracketing captures, the top-5 symbols and
// their share — where the replay's allocations went and which locks it
// contended.
func printProfile(c *profile.Capture) {
	lines := profile.SummaryLines(c, 5)
	if len(lines) == 0 {
		return
	}
	fmt.Printf("\n--- profile (replay delta) ---\n")
	for _, l := range lines {
		fmt.Printf("  %s\n", l)
	}
}

// finalAudit runs the post-replay synchronous sweep and exits non-zero
// on any violation (this run's plus any found by the in-replay sweeps),
// making `xarsim -audit` a CI-usable correctness gate.
func finalAudit(auditor *audit.Auditor, jr *journal.Journal) {
	rep := auditor.Audit()
	st := jr.Stats()
	log.Printf("audit: checked %d live rides + %d journaled timelines (%d events) in %.1f ms",
		rep.RidesChecked, rep.JournalRides, st.Events, rep.DurationSeconds*1e3)
	if total := auditor.TotalViolations(); total > 0 {
		for _, v := range rep.Violations {
			log.Printf("audit: VIOLATION [%s] ride %d: %s", v.Invariant, v.Ride, v.Detail)
		}
		log.Fatalf("audit: %d invariant violation(s) across all sweeps — failing", total)
	}
	log.Printf("audit: all invariants hold (0 violations)")
}
