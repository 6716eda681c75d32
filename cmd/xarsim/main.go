// Command xarsim runs the paper's ride-share simulation (§X-A2) over a
// synthetic city and demand stream, on XAR or on the T-Share baseline,
// and prints throughput, match quality and latency statistics, measured
// by the replay itself (the tool exports no telemetry):
//
//	xarsim -system xar -requests 10000
//	xarsim -system tshare -requests 10000
//	xarsim -system both -requests 10000 -k 5 -looktobook 10
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"xar/internal/audit"
	"xar/internal/experiments"
	"xar/internal/journal"
	"xar/internal/quality"
	"xar/internal/sim"
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
	auditFlag := flag.Bool("audit", false, "journal the XAR replay's ride-lifecycle events and count its match-quality funnel, sweep the invariant auditor on the simulated clock, run a full synchronous audit after the replay, and exit non-zero on any violation")
	auditInterval := flag.Float64("audit-interval", 300, "simulated seconds between -audit sweeps during the replay")
	flag.Parse()
	switch *system {
	case "xar", "tshare", "both":
	default:
		log.Fatalf("unknown -system %q (want xar|tshare|both)", *system)
	}
	if !(*auditInterval > 0 && *auditInterval < math.Inf(1)) {
		log.Fatalf("-audit-interval must be a positive, finite number of seconds, got %v", *auditInterval)
	}
	if *lookToBook < 1 {
		log.Fatalf("-looktobook must be at least 1, got %d", *lookToBook)
	}
	if *k < 0 {
		log.Fatalf("-k must be 0 (all) or positive, got %d", *k)
	}

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
		xcfg := cfg
		if *auditFlag {
			// The funnel collector lets the audit check funnel_accounting
			// beside the journal and index invariants.
			w.Journal = journal.New(journal.Config{})
			w.Quality = quality.New(nil)
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
		report(w, &sim.XARSystem{Engine: eng}, xcfg)
		experiments.WriteMemory(os.Stdout, eng.MemSweep())
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
