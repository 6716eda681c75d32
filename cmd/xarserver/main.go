// Command xarserver runs the XAR platform as a JSON HTTP service over a
// synthetic city — the deployment shape §IX's multi-modal-trip-planner
// integration assumes. See internal/server for the API.
//
//	xarserver -addr :8080 -rows 40 -cols 22
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/metrics/prom     # Prometheus scrape
//	curl -s -X POST localhost:8080/v1/search -d '{
//	    "source": {"lat": 40.71, "lng": -74.01},
//	    "dest":   {"lat": 40.73, "lng": -73.99},
//	    "earliest_departure": 28800, "latest_departure": 30600,
//	    "walk_limit_m": 800}'
//
// Observability (see README "Observability" and OBSERVABILITY.md):
//
//	-access-log            structured per-request log on stderr
//	-slow-ms 250           warn-log engine operations slower than 250 ms
//	-trace-sample 64       head-sample 1-in-N requests into /v1/traces (0 disables)
//	-trace-slow-ms 50      always keep traces slower than this
//	-pprof                 mount net/http/pprof under /debug/pprof/
//	-history-interval 10s  flight-recorder snapshot cadence (0 disables history+SLOs)
//	-history-retention 1h  how much metric history /v1/metrics/history retains
//	-slo                   evaluate burn-rate SLOs at /v1/slo and in /v1/healthz
//	-slo-search-p95-ms 5   search-latency objective threshold
//	-bundle-dir DIR        SIGQUIT writes a debug bundle tar.gz here (also GET /v1/debug/bundle)
//	-journal               journal ride-lifecycle events (/v1/rides/{id}/timeline, /v1/events)
//	-audit-interval 30s    background invariant-audit sweep cadence (0 disables)
//	-quality               collect the match-quality funnel and gap histograms (/v1/quality)
//	-shadow-sample 8       shadow-match 1-in-N no-match requests and bookings (0 disables; needs -quality)
//	-mem-sweep 30s         memory-accounting sweep cadence (xar_memsize_bytes{component},
//	                       xar_rides_per_gb; 0: no sweeps until /v1/memory asks for one)
//	-profile-interval 60s  continuous-profiling capture cadence (/v1/profiles,
//	                       /v1/profiles/diff, xar_profile_* metrics; 0 disables)
//
// Build identity (xar_build_info, /v1/healthz build section) is stamped
// at link time:
//
//	go build -ldflags "-X xar/internal/telemetry.Version=v1.2.3 \
//	    -X xar/internal/telemetry.Commit=$(git rev-parse --short HEAD)" ./cmd/xarserver
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"xar/internal/audit"
	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/experiments"
	"xar/internal/journal"
	"xar/internal/profile"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/server"
	"xar/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xarserver: ")

	addr := flag.String("addr", ":8080", "listen address")
	rows := flag.Int("rows", 40, "city lattice rows")
	cols := flag.Int("cols", 22, "city lattice columns")
	seed := flag.Int64("seed", 42, "random seed")
	eps := flag.Float64("eps", 1000, "epsilon (= 4δ) in meters")
	accessLog := flag.Bool("access-log", false, "emit a structured access-log record per request")
	slowMS := flag.Float64("slow-ms", 250, "slow-operation log threshold in milliseconds (0 disables)")
	traceSample := flag.Int("trace-sample", 64, "record 1-in-N requests as traces into /v1/traces (0 disables tracing; sampled incoming traceparents always record)")
	traceSlowMS := flag.Float64("trace-slow-ms", 50, "always keep traces at least this slow, regardless of sampling")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (opt-in; exposes internals)")
	historyInterval := flag.Duration("history-interval", 10*time.Second, "flight-recorder snapshot cadence for /v1/metrics/history (0 disables history and SLOs)")
	historyRetention := flag.Duration("history-retention", time.Hour, "how much metric history the flight recorder retains")
	enableSLO := flag.Bool("slo", true, "evaluate burn-rate SLOs (/v1/slo, /v1/healthz status); needs the flight recorder")
	sloSearchP95 := flag.Float64("slo-search-p95-ms", 5, "search-latency SLO threshold in milliseconds (p95)")
	bundleDir := flag.String("bundle-dir", ".", "directory SIGQUIT-triggered debug bundles are written to")
	enableJournal := flag.Bool("journal", true, "record ride-lifecycle events into the bounded journal; serves /v1/rides/{id}/timeline and /v1/events")
	auditInterval := flag.Duration("audit-interval", 30*time.Second, "background invariant-audit sweep cadence (0 disables the auditor)")
	enableQuality := flag.Bool("quality", true, "collect the match-quality funnel and approximation-gap histograms; serves /v1/quality")
	shadowSample := flag.Int("shadow-sample", 8, "shadow-match 1-in-N no-match requests and bookings off the request path (0 disables; needs -quality)")
	memSweep := flag.Duration("mem-sweep", 30*time.Second, "memory-accounting sweep cadence for the xar_memsize/xar_rides_per_gb gauges; the first sweep runs at startup (0: none at startup or after; /v1/memory still sweeps on demand)")
	profileInterval := flag.Duration("profile-interval", profile.DefaultInterval, "continuous-profiling capture cadence; serves /v1/profiles and the xar_profile_* metrics (0 disables)")
	flag.Parse()

	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	start := time.Now()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(*rows, *cols, *seed))
	if err != nil {
		log.Fatal(err)
	}
	dcfg := discretize.DefaultConfig()
	dcfg.Delta = *eps / 4
	disc, err := discretize.Build(city, dcfg)
	if err != nil {
		log.Fatal(err)
	}
	// One tracer shared by engine and server: HTTP roots and bare engine
	// spans land in the same ring, and /v1/traces serves both.
	var tracer *telemetry.Tracer
	if *traceSample > 0 {
		tracer = telemetry.NewTracer(telemetry.TracerConfig{
			SampleRate:    *traceSample,
			SlowThreshold: time.Duration(*traceSlowMS * float64(time.Millisecond)),
		})
	}

	var jr *journal.Journal
	if *enableJournal {
		jr = journal.New(journal.Config{Registry: reg})
	}

	ecfg := core.DefaultConfig()
	ecfg.Telemetry = reg
	ecfg.Tracer = tracer
	ecfg.SlowOpThreshold = time.Duration(*slowMS * float64(time.Millisecond))
	ecfg.SlowOpLogger = logger
	ecfg.Journal = jr
	var qc *quality.Collector
	if *enableQuality {
		qc = quality.New(reg)
		ecfg.Quality = qc
		ecfg.ShadowSampleRate = *shadowSample
	} else if *shadowSample > 0 {
		log.Printf("the shadow matcher needs -quality; running without it")
	}
	eng, err := core.NewEngine(disc, ecfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	log.Printf("world ready in %v: %d road nodes, %d landmarks, %d clusters, ε=%.0f m, router=%s",
		time.Since(start).Round(time.Millisecond),
		city.Graph.NumNodes(), len(disc.Landmarks), disc.NumClusters(), disc.Epsilon(), eng.Router())

	opts := []server.Option{server.WithTelemetry(reg)}
	if tracer != nil {
		opts = append(opts, server.WithTracer(tracer))
	}
	if *accessLog {
		opts = append(opts, server.WithAccessLog(logger))
	}
	if jr != nil {
		opts = append(opts, server.WithJournal(jr))
	}
	if qc != nil {
		opts = append(opts, server.WithQuality(qc))
	}
	// The continuous profiler watches the process, not the engine: it is
	// started here and handed to the server, which serves its rings.
	var prof *profile.Profiler
	if *profileInterval > 0 {
		prof = profile.New(profile.Config{Registry: reg, Logf: log.Printf})
		prof.Start(*profileInterval)
		defer prof.Close()
		opts = append(opts, server.WithProfiler(prof))
	}
	if *auditInterval > 0 {
		acfg := audit.Config{
			Target: audit.Target{
				View:    eng.Index(),
				Graph:   city.Graph,
				Epsilon: disc.Epsilon(),
				Journal: jr,
				Quality: qc,
			},
			Interval: *auditInterval,
			Registry: reg,
			Logger:   logger,
		}
		if tracer != nil {
			acfg.TraceStore = tracer.Store()
		}
		auditor := audit.New(acfg)
		auditor.Start()
		defer auditor.Stop()
		opts = append(opts, server.WithAuditor(auditor))
	}

	// Flight recorder: in-process metric history and burn-rate SLOs hang
	// off the snapshot cadence.
	if *historyInterval > 0 {
		rec := telemetry.NewRecorder(reg, telemetry.RecorderConfig{
			Interval:  *historyInterval,
			Retention: *historyRetention,
		})
		rec.Start()
		defer rec.Stop()
		opts = append(opts, server.WithRecorder(rec))
		if *enableSLO {
			slo := telemetry.NewSLOEngine(rec,
				server.DefaultSLOs(time.Duration(*sloSearchP95*float64(time.Millisecond)))...)
			opts = append(opts, server.WithSLO(slo))
			// A page pins the continuous profiler's capture bracket, so
			// the flat tables and raw CPU profiles around the incident
			// survive ring eviction and ship in the debug bundle.
			if prof != nil {
				prof.AttachTo(slo)
			}
		}
	} else if *enableSLO {
		log.Printf("SLOs need the flight recorder; start with -history-interval > 0 to enable them")
	}
	srv := server.New(eng, core.NewSocialGraph(), opts...)
	if *memSweep > 0 {
		// server.New registered the profiler, trace store and recorder as
		// components, so the startup summary covers the complete set.
		experiments.WriteMemory(log.Writer(), eng.MemSweep())
		// The sweeper duty-cycles itself: after a sweep that took d it
		// waits at least 99×d, however large the fleet grows.
		var sweeper telemetry.Worker
		sweeper.Start(*memSweep, func() time.Duration {
			start := time.Now()
			eng.MemSweep()
			return telemetry.Throttle(*memSweep, time.Since(start))
		})
		defer sweeper.Stop()
	}

	// SIGQUIT writes a one-shot diagnostic bundle instead of Go's default
	// stack-dump-and-exit — the flight recorder's goroutine dump is in the
	// bundle, and the process keeps serving.
	go func() {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		for range quit {
			path := filepath.Join(*bundleDir,
				fmt.Sprintf("xar-debug-%d.tar.gz", time.Now().Unix()))
			f, err := os.Create(path)
			if err != nil {
				log.Printf("SIGQUIT bundle: %v", err)
				continue
			}
			if err := srv.WriteDebugBundle(f); err != nil {
				log.Printf("SIGQUIT bundle: %v", err)
			} else {
				log.Printf("SIGQUIT: wrote debug bundle to %s", path)
			}
			f.Close()
		}
	}()

	handler := http.Handler(srv.Handler())
	if *enablePprof {
		// pprof rides on a wrapper mux so the API mux stays clean and the
		// profiling surface is strictly opt-in.
		root := http.NewServeMux()
		root.Handle("/", srv.Handler())
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = root
		log.Printf("pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("serving on %s (metrics: /v1/metrics/prom)", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}
