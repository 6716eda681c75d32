package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"

	"xar/internal/profile"
	"xar/internal/telemetry"
)

// Flight-recorder endpoints: windowed metric history, SLO burn-rate
// states, and the one-shot diagnostic bundle. See OBSERVABILITY.md for
// the full surface with curl examples.
//
//	GET /v1/metrics/history?name=...&window_s=300&since_s=1800&max_points=200
//	GET /v1/slo
//	GET /v1/debug/bundle

// WithRecorder serves the recorder's retained time-series at
// GET /v1/metrics/history and includes history.json in debug bundles.
// The caller owns the recorder's ticking (Start, or TickAt in replays).
func WithRecorder(rec *telemetry.Recorder) Option {
	return func(s *Server) { s.recorder = rec }
}

// WithSLO serves the engine's objective states at GET /v1/slo, folds the
// worst state into /v1/healthz, and includes slo.json in debug bundles.
func WithSLO(slo *telemetry.SLOEngine) Option {
	return func(s *Server) { s.slo = slo }
}

// DefaultSLOs returns the serving objectives the paper's evaluation
// implies, thresholds on the DurationBuckets grid:
//
//   - search-p95: 95% of engine searches under searchP95 (the paper's
//     headline sub-millisecond search, §X Fig 4a — give live deployments
//     headroom above the benchmark's ~0.5µs).
//   - book-conflict-rate: optimistic-commit retries stay under 10% of
//     bookings (sustained conflict storms mean many writers on few rides).
//   - http-error-rate: 5xx responses stay under 1% of requests.
//
// The server does not evaluate these itself; pass them to
// telemetry.NewSLOEngine over the recorder that snapshots this
// registry's instruments.
func DefaultSLOs(searchP95 time.Duration) []telemetry.Objective {
	return []telemetry.Objective{
		telemetry.LatencyObjective("search-p95",
			telemetry.OpDurationName, telemetry.L("op", "search"),
			searchP95.Seconds(), 0.95),
		telemetry.RatioObjective("book-conflict-rate",
			"optimistic booking conflict retries < 10% of bookings",
			"xar_book_conflict_retries_total", nil,
			telemetry.OpDurationName, telemetry.L("op", "book"), 0.10),
		telemetry.RatioObjective("http-error-rate",
			"HTTP 5xx responses < 1% of requests",
			httpRequestsName, telemetry.L("code", "5xx"),
			httpRequestsName, nil, 0.01),
		// Any invariant violation should burn through this budget and
		// page almost immediately; a deployment without an auditor has
		// no such series and the objective reports no-data (ok).
		telemetry.RatioObjective("audit-violations",
			"invariant-audit violations < 1% of sweeps",
			"xar_audit_violations_total", nil,
			"xar_audit_sweeps_total", nil, 0.01),
	}
}

func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "metrics history disabled (server built without a recorder)"})
		return
	}
	q := r.URL.Query()
	// A typo'd parameter (windows_s, maxpoints) would otherwise silently
	// fall back to defaults — dashboards would chart the wrong window and
	// never know. Same contract as /v1/traces and /v1/events.
	if !allowParams(w, q, "name", "window_s", "since_s", "max_points") {
		return
	}
	var hq telemetry.HistoryQuery
	hq.Name = q.Get("name")
	var bad string
	parseSeconds := func(key string, dst *time.Duration) {
		v := q.Get(key)
		if v == "" || bad != "" {
			return
		}
		sec, err := strconv.ParseFloat(v, 64)
		// NaN fails no ordered comparison — reject it explicitly.
		if err != nil || math.IsNaN(sec) || sec <= 0 || sec > 1e9 {
			bad = key + " must be a positive number of seconds"
			return
		}
		*dst = time.Duration(sec * float64(time.Second))
	}
	parseSeconds("window_s", &hq.Window)
	parseSeconds("since_s", &hq.Since)
	if v := q.Get("max_points"); v != "" && bad == "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			bad = "max_points must be a positive integer"
		} else {
			hq.MaxPoints = n
		}
	}
	if bad != "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: bad})
		return
	}
	writeJSON(w, http.StatusOK, s.recorder.History(hq))
}

// SLOResponse is the GET /v1/slo body.
type SLOResponse struct {
	Status     string                `json:"status"` // worst state across objectives
	Objectives []telemetry.SLOStatus `json:"objectives"`
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "SLOs disabled (server built without an SLO engine)"})
		return
	}
	// /v1/slo takes no parameters; reject any so a future filtered form
	// cannot be shadowed by today's ignore-everything behavior.
	if !allowParams(w, r.URL.Query()) {
		return
	}
	writeJSON(w, http.StatusOK, SLOResponse{
		Status:     s.slo.WorstState().String(),
		Objectives: s.slo.Statuses(),
	})
}

// sloStatus is the health string /v1/healthz reports: the worst SLO
// state when an engine is configured, "ok" otherwise.
func (s *Server) sloStatus() string {
	if s.slo == nil {
		return "ok"
	}
	return s.slo.WorstState().String()
}

func (s *Server) handleDebugBundle(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="xar-debug-%d.tar.gz"`, time.Now().Unix()))
	w.WriteHeader(http.StatusOK)
	// Errors past this point cannot change the status; the tar stream
	// just ends short and gunzip reports truncation.
	_ = s.WriteDebugBundle(w)
}

// WriteDebugBundle streams the one-shot diagnostic bundle — a tar.gz
// with everything a post-incident look needs, captured at one instant:
//
//	config.json          engine configuration + world dimensions
//	quality.json         match-quality funnel, slack distribution and
//	                     shadow-matcher stats (when a collector is wired)
//	memory.json          per-component memory breakdown, rides/GB, heap
//	                     stats and top allocation sites (when the engine
//	                     has memory accounting)
//	slo.json             objective states (when an SLO engine is wired)
//	audit.json           invariant-auditor state + last sweep report
//	                     (when an auditor is wired)
//	audit_timelines.json journaled timelines of the ≤10 most recent
//	                     violating rides (auditor + journal wired)
//	history.json         recorded metric time-series (when recording)
//	metrics.prom         current scrape, Prometheus text format
//	traces_slowest.json  the 20 slowest retained traces (when tracing)
//	traces_errors.json   retained error traces (when tracing)
//	goroutine.pprof      goroutine profile, pprof protobuf
//	goroutines.txt       goroutine dump, human-readable
//	heap.pprof           heap profile
//	profiles.json        continuous-profiler capture summaries (when
//	                     the engine has Config.Profiling)
//	profile-<id>-<raw>.pprof
//	                     raw blobs (cpu, heap, mutex, block) of every
//	                     pinned capture — the profiles bracketing SLO
//	                     pages travel with the bundle, each loadable
//	                     by `go tool pprof`
//
// It serves GET /v1/debug/bundle and the SIGQUIT dump in xarserver.
func (s *Server) WriteDebugBundle(w io.Writer) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	now := time.Now()

	addBytes := func(name string, b []byte) error {
		if err := tw.WriteHeader(&tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(b)), ModTime: now,
		}); err != nil {
			return err
		}
		_, err := tw.Write(b)
		return err
	}
	addJSON := func(name string, v any) error {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return addBytes(name, append(b, '\n'))
	}
	addFrom := func(name string, fill func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := fill(&buf); err != nil {
			return err
		}
		return addBytes(name, buf.Bytes())
	}

	if err := addJSON("config.json", s.eng.ConfigSummary()); err != nil {
		return err
	}
	if s.slo != nil {
		if err := addJSON("slo.json", SLOResponse{
			Status:     s.slo.WorstState().String(),
			Objectives: s.slo.Statuses(),
		}); err != nil {
			return err
		}
	}
	if s.auditor != nil {
		if err := addJSON("audit.json", map[string]any{
			"total_violations":       s.auditor.TotalViolations(),
			"recent_violating_rides": s.auditor.RecentViolatingRides(),
			"last_report":            s.auditor.LastReport(),
		}); err != nil {
			return err
		}
		if s.journal != nil {
			timelines := []TimelineResponse{}
			for _, id := range s.auditor.RecentViolatingRides() {
				if evs := s.journal.Timeline(id); evs != nil {
					timelines = append(timelines, TimelineResponse{RideID: id, Events: evs})
				}
			}
			if err := addJSON("audit_timelines.json", timelines); err != nil {
				return err
			}
		}
	}
	if s.quality != nil {
		if err := addJSON("quality.json", s.qualityResponse()); err != nil {
			return err
		}
	}
	if s.recorder != nil {
		if err := addJSON("history.json", s.recorder.History(telemetry.HistoryQuery{})); err != nil {
			return err
		}
	}
	if s.eng.MemComponents() != nil {
		rep := s.eng.LastMemReport()
		if rep == nil {
			rep = s.eng.MemSweep()
		}
		if err := addJSON("memory.json", rep); err != nil {
			return err
		}
	}
	if err := addFrom("metrics.prom", s.reg.WritePrometheus); err != nil {
		return err
	}

	if s.tracer != nil {
		store := s.tracer.Store()
		if err := addJSON("traces_slowest.json",
			TracesResponse{Traces: telemetry.Docs(store.Slowest(20))}); err != nil {
			return err
		}
		if err := addJSON("traces_errors.json",
			TracesResponse{Traces: telemetry.Docs(store.List(telemetry.TraceFilter{Status: "error"}))}); err != nil {
			return err
		}
	}

	if err := addFrom("goroutine.pprof", func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 0)
	}); err != nil {
		return err
	}
	if err := addFrom("goroutines.txt", func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 1)
	}); err != nil {
		return err
	}
	if err := addFrom("heap.pprof", func(w io.Writer) error {
		return pprof.Lookup("heap").WriteTo(w, 0)
	}); err != nil {
		return err
	}
	if p := s.eng.Profiler(); p != nil {
		if err := addJSON("profiles.json", ProfileListResponse{Profiles: p.List(profile.ListFilter{})}); err != nil {
			return err
		}
		// Pinned captures are the profiles bracketing SLO pages — ship
		// their raw blobs so the post-incident look has them even after
		// the process is gone.
		for _, sum := range p.List(profile.ListFilter{PinnedOnly: true}) {
			c, ok := p.Get(sum.ID)
			if !ok {
				continue
			}
			for _, name := range c.RawNames() {
				if err := addBytes(fmt.Sprintf("profile-%d-%s.pprof", c.ID, name), c.Raw(name)); err != nil {
					return err
				}
			}
		}
	}

	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}
