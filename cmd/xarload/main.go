// Command xarload is the open-loop, coordinated-omission-safe load
// generator. It drives either an in-process engine (wrapped in the same
// HTTP server xarserver runs, so the full JSON path is measured) or a
// remote server, on a fixed arrival schedule, sweeping a rate ladder to
// produce the throughput/latency/memory frontier:
//
//	xarload                             # default sweep, writes BENCH_scale.json
//	xarload -rates 200,500,1000,2000    # explicit rate ladder (ops/s)
//	xarload -mode http -target http://host:8080   # drive a live server
//	xarload -darp a2-16.txt             # replay a Cordeau DARP instance
//	xarload -gate-p99-ms 50 -gate-match-rate 0.05  # exit 1 on regression
//
// Latency is measured from each operation's *intended* send time on the
// precomputed schedule, so a stalled server is charged the queueing
// delay it caused instead of quietly pausing the generator (see
// internal/load's package comment on coordinated omission). Each rate
// step records client-side quantiles, the server's own histogram view
// over the same window (cross-check), heap/RSS plus memsize-derived
// rides-per-GB, and the step's hottest allocation/contention symbols
// from the continuous profiler (-profile=false disables).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xar/internal/core"
	"xar/internal/experiments"
	"xar/internal/load"
	"xar/internal/profile"
	"xar/internal/quality"
	"xar/internal/server"
	"xar/internal/telemetry"
	"xar/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xarload: ")

	var (
		rows     = flag.Int("rows", 40, "city lattice rows (streets)")
		cols     = flag.Int("cols", 22, "city lattice columns (avenues)")
		requests = flag.Int("requests", 4000, "trip stream length")
		eps      = flag.Float64("eps", 1000, "epsilon in meters")
		seed     = flag.Int64("seed", 42, "random seed (world, schedules, op draws)")

		mode    = flag.String("mode", "server", "target: engine (in-process core.Engine), server (in-process HTTP server), http (remote server at -target)")
		target  = flag.String("target", "", "base URL for -mode http, e.g. http://localhost:8080")
		darp    = flag.String("darp", "", "drive a Cordeau DARP instance file instead of the synthetic workload (coordinates are mapped into the generated city)")
		ratesF  = flag.String("rates", "200,500,1000,2000,4000", "comma-separated offered rates to sweep, ops/second")
		opsPer  = flag.Int("ops-per-step", 2000, "arrivals per rate step")
		warmup  = flag.Int("warmup", 500, "unrecorded warmup arrivals before the sweep")
		arrival = flag.String("arrival", "poisson", "arrival process: poisson|constant")
		mixF    = flag.String("mix", "", "op mix, e.g. search=0.7,book=0.15,create=0.1,track=0.04,cancel=0.01 (empty = default)")
		infl    = flag.Int("inflight", 0, "max concurrently outstanding ops (0 = unbounded open loop)")
		out     = flag.String("out", "BENCH_scale.json", "frontier output path (\"-\" = stdout)")

		qualityF     = flag.Bool("quality", false, "collect the match-quality funnel during the sweep (engine/server modes) and log the summary after it")
		shadowSample = flag.Int("shadow-sample", 8, "with -quality, shadow-match 1-in-N no-match requests and bookings (0 disables the shadow matcher)")
		profileF     = flag.Bool("profile", true, "attribute each step's allocations/contention to their hottest symbols in BENCH_scale.json and log a post-run top-5 (engine/server modes)")

		gateP99   = flag.Float64("gate-p99-ms", 0, "fail (exit 1) if the lowest-rate step's client p99 exceeds this many ms (0 = no gate)")
		gateMatch = flag.Float64("gate-match-rate", 0, "fail if any step's match rate drops below this (0 = no gate)")
		gateErrs  = flag.Int64("gate-errors", 0, "fail if harness errors across the sweep exceed this")
	)
	flag.Parse()

	rates, err := parseRates(*ratesF)
	if err != nil {
		log.Fatal(err)
	}
	mix := load.DefaultMix()
	if *mixF != "" {
		if mix, err = load.ParseMix(*mixF); err != nil {
			log.Fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale := experiments.DefaultScale()
	scale.CityRows, scale.CityCols = *rows, *cols
	scale.Requests = *requests
	scale.Epsilon = *eps
	scale.Seed = *seed

	log.Printf("building world (%dx%d, %d trips, eps %.0f m)...", *rows, *cols, *requests, *eps)
	world, err := experiments.BuildWorld(scale)
	if err != nil {
		log.Fatal(err)
	}
	if *darp != "" {
		f, err := os.Open(*darp)
		if err != nil {
			log.Fatal(err)
		}
		inst, err := workload.ReadDARP(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		world.Trips = inst.MapToBBox(world.City.Graph.BBox())
		log.Printf("loaded DARP instance: %d requests, |K|=%d, Q=%d",
			inst.Requests, inst.Vehicles, inst.Capacity)
	}

	cfg := load.SweepConfig{
		Rates:       rates,
		OpsPerStep:  *opsPer,
		Arrival:     *arrival,
		Mix:         mix,
		Seed:        *seed,
		MaxInflight: *infl,
		WarmupOps:   *warmup,
		Logf:        log.Printf,
	}

	var (
		tgt     load.Target
		eng     *core.Engine
		baseURL string
		httpCl  = (*load.HTTPTarget)(nil)
		rec     *telemetry.Recorder
		prof    *profile.Profiler
	)
	switch *mode {
	case "engine", "server":
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		world.Telemetry = reg
		if *qualityF {
			world.Quality = quality.New(reg)
			world.ShadowSampleRate = *shadowSample
		}
		if *profileF {
			// Capture-on-demand profiler: one capture per rate step (in
			// the Observe hook, between steps) attributes the step's
			// allocations and contention. The CPU window is disabled —
			// between steps the process is idle, so a window there would
			// sample nothing of interest.
			prof = profile.New(profile.Config{
				Registry:  reg,
				CPUWindow: -1,
				Logf:      log.Printf,
			})
		}
		if eng, err = world.NewXAREngine(); err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		if *mode == "engine" {
			tgt = load.NewEngineTarget(eng)
		} else {
			rec = telemetry.NewRecorder(reg, telemetry.RecorderConfig{
				Interval:  time.Second,
				Retention: 10 * time.Minute,
			})
			opts := []server.Option{server.WithTelemetry(reg), server.WithRecorder(rec)}
			if world.Quality != nil {
				opts = append(opts, server.WithQuality(world.Quality))
			}
			srv := httptest.NewServer(server.New(eng, core.NewSocialGraph(), opts...).Handler())
			defer srv.Close()
			ht := load.NewHTTPTarget(srv.URL)
			tgt, httpCl, baseURL = ht, ht, ht.BaseURL
		}
	case "http":
		if *target == "" {
			log.Fatal("-mode http requires -target URL")
		}
		ht := load.NewHTTPTarget(*target)
		tgt, httpCl, baseURL = ht, ht, ht.BaseURL
	default:
		log.Fatalf("unknown -mode %q (want engine, server, or http)", *mode)
	}

	offers, requestTrips := world.SplitOffersRequests()
	cfg.Trips = requestTrips
	log.Printf("seeding %d ride offers...", len(offers))
	for _, o := range offers {
		if res := tgt.Do(load.OpCreate, o); res.Err != nil {
			log.Fatalf("seeding offers: %v", res.Err)
		}
	}

	// Per-step capture: snapshot the recorder so the server's history
	// window covers exactly this step, scrape the server's own view, and
	// measure memory. The anchor tick below opens the first window.
	if rec != nil {
		rec.TickNow()
	}
	if prof != nil {
		// Baseline capture: the cumulative kinds (heap_alloc, mutex,
		// block) delta against this, so the first step's attribution
		// excludes world building and offer seeding.
		prof.CaptureNow()
	}
	cfg.Observe = func(step *load.Step, rep *load.Report) {
		if rec != nil {
			rec.TickNow()
		}
		step.Profile = load.MeasureProfile(prof)
		if httpCl != nil {
			// Window just under the step's wall time: the history delta
			// anchors on the tick taken at the previous step's end, so the
			// server stats cover exactly this step.
			win := time.Duration(0.9 * rep.WallSeconds * float64(time.Second))
			st, err := load.ScrapeServer(httpCl.Client, baseURL, "search", win)
			if err != nil {
				log.Printf("server scrape: %v", err)
			} else {
				step.Server = st
			}
		}
		if eng != nil {
			// A synchronous sweep between steps, never during one, so
			// BENCH_scale.json records which subsystem owns the bytes.
			step.Memory = load.MeasureEngine(eng)
		}
	}

	frontier, err := load.RunSweep(ctx, tgt, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if world.Quality != nil && eng != nil {
		eng.ShadowFlush()
		experiments.WriteQuality(log.Writer(), world.Quality.Snapshot())
	}
	if eng != nil {
		experiments.WriteMemory(log.Writer(), eng.LastMemReport())
	}
	if prof != nil {
		if c, ok := prof.Newest(); ok {
			experiments.WriteProfile(log.Writer(), fmt.Sprintf("last step, capture %d", c.ID), &c)
		}
	}
	frontier.Mode = *mode
	frontier.World = map[string]any{
		"rows": *rows, "cols": *cols, "requests": *requests,
		"epsilon_m": *eps, "seed": *seed, "darp": *darp,
	}

	buf, err := json.MarshalIndent(frontier, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d rate steps)", *out, len(frontier.Steps))
	}

	if violations := frontier.Check(load.Gate{
		MaxP99MS:     *gateP99,
		MinMatchRate: *gateMatch,
		MaxErrors:    *gateErrs,
	}); len(violations) > 0 {
		for _, v := range violations {
			log.Printf("GATE: %s", v)
		}
		os.Exit(1)
	}
}

func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("rate %q must be a positive number", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no rates in %q", s)
	}
	return rates, nil
}
