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
//	xarbench -fig all         # everything
//
// Scale flags (-rows, -cols, -requests, -eps, -seed) trade fidelity for
// runtime; the defaults complete in a few minutes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"xar/internal/experiments"
	"xar/internal/profile"
	"xar/internal/quality"
	"xar/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xarbench: ")

	fig := flag.String("fig", "all", "figure to regenerate: 3a|3b|3cd|4|5a|5b|6|all")
	rows := flag.Int("rows", 40, "city lattice rows (streets)")
	cols := flag.Int("cols", 22, "city lattice columns (avenues)")
	requests := flag.Int("requests", 4000, "trip stream length")
	eps := flag.Float64("eps", 1000, "epsilon in meters (paper: 1 km)")
	seed := flag.Int64("seed", 42, "random seed")
	prom := flag.String("prom", "", "after the run, dump the shared latency histograms in Prometheus text format to this file (\"-\" = stdout)")
	traceOut := flag.String("trace-out", "", "dump the slowest XAR traces as JSON to this file")
	traceTop := flag.Int("trace-top", 20, "how many slowest traces -trace-out keeps")
	historyOut := flag.String("history-out", "", "record the run's telemetry on a 1s wall-clock cadence and write the time-series as JSON to this file")
	qualityFlag := flag.Bool("quality", false, "collect the match-quality funnel across the replayed engines (and shadow counterfactuals at -shadow-sample) and print the summary after the run")
	shadowSample := flag.Int("shadow-sample", 8, "with -quality, shadow-match 1-in-N no-match requests and bookings (0 disables the shadow matcher)")
	profileFlag := flag.Bool("profile", true, "profile the run (allocation and contention deltas bracketing the workload) and print the top-5 symbols per kind after it")
	flag.Parse()
	figs := figures
	if *fig != "all" {
		figs = strings.Split(*fig, ",")
		for i, f := range figs {
			figs[i] = strings.TrimSpace(f)
			if !slices.Contains(figures, figs[i]) {
				log.Fatalf("unknown -fig %q (want %s|all, or a comma-separated list)", figs[i], strings.Join(figures, "|"))
			}
		}
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

	var prof *profile.Profiler
	if *profileFlag {
		// Bracket the workload with captures: the cumulative kinds
		// (heap_alloc, mutex, block) delta between them, so the summary
		// attributes the replays alone — world building lands in the
		// discarded baseline. The CPU window is disabled; a post-run
		// window would sample idle.
		prof = profile.New(profile.Config{CPUWindow: -1, Logf: log.Printf})
		prof.CaptureNow()
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

	for _, f := range figs {
		if err := run(w, f); err != nil {
			log.Fatalf("fig %s: %v", f, err)
		}
	}
	if prof != nil {
		experiments.WriteProfile(os.Stdout, "run delta", prof.CaptureNow())
	}
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

// figures lists the -fig names run knows; -fig all runs each in turn.
var figures = []string{"3a", "3b", "3cd", "4", "5a", "5b", "6"}

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

	default:
		return fmt.Errorf("unknown figure")
	}
	return nil
}
