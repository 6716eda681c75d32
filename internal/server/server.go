// Package server exposes the XAR engine as a JSON-over-HTTP service —
// the integration surface a multi-modal trip planner calls (§IX). The
// paper's Go-LA deployment numbers (8 trip plans per request, ~4 legs
// each, look-to-book ≈ 480) describe exactly this interface under load;
// the search endpoint is therefore the hot path and maps directly onto
// the engine's shortest-path-free search.
//
// Endpoints (all JSON):
//
//	POST   /v1/rides            create a ride offer
//	GET    /v1/rides/{id}       ride status
//	DELETE /v1/rides/{id}       complete/cancel a ride
//	POST   /v1/search           find matches for a request
//	POST   /v1/bookings         confirm a match
//	DELETE /v1/bookings         cancel a booking
//	POST   /v1/track            advance a ride (by time or GPS report)
//	GET    /v1/rides/{id}/timeline  the ride's journaled event timeline
//	GET    /v1/events           global event tail (filter: type, since, limit)
//	GET    /v1/metrics          engine counters
//	GET    /v1/metrics/prom     full telemetry, Prometheus text format
//	GET    /v1/metrics/json     full telemetry, JSON with percentiles
//	GET    /v1/traces           recent traces (filter: op, min_ms, status)
//	GET    /v1/traces/{id}      one trace as a span tree
//	GET    /v1/quality          match-quality funnel, slack, shadow stats
//	GET    /v1/memory           per-component memory breakdown, rides/GB,
//	                            heap stats, top allocation sites
//	GET    /v1/profiles         continuous-profiler capture list (filter:
//	                            pinned, since_s, limit)
//	GET    /v1/profiles/{id}    one capture's flat profile tables (?kind=
//	                            narrows, ?format=pprof exports the raw blob)
//	GET    /v1/profiles/diff    symbol-level delta between two captures
//	                            (from, to, kind, limit)
//	GET    /v1/healthz          liveness + uptime + engine counters
//
// Every route is wrapped in telemetry middleware: per-route request and
// status-class counters, latency histograms, an in-flight gauge,
// request-scoped tracing (W3C traceparent in, X-Xar-Trace-Id out) and an
// optional structured access log (see middleware.go).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"xar/internal/audit"
	"xar/internal/core"
	"xar/internal/geo"
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// Server wires an engine (and optionally a social graph) to an
// http.Handler. Safe for concurrent use — the engine does the locking.
type Server struct {
	eng    *core.Engine
	social *core.SocialGraph
	mux    *http.ServeMux

	reg       *telemetry.Registry
	tracer    *telemetry.Tracer
	recorder  *telemetry.Recorder
	slo       *telemetry.SLOEngine
	journal   *journal.Journal
	auditor   *audit.Auditor
	quality   *quality.Collector
	accessLog *slog.Logger
	inflight  *telemetry.Gauge
	build     telemetry.Build
	started   time.Time
}

// Option customizes a Server.
type Option func(*Server)

// WithTelemetry records serving metrics into reg instead of a private
// registry. Pass the same registry the engine was configured with so
// /v1/metrics/prom exposes engine, search-stage and HTTP series
// together.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithAccessLog emits one structured record per request to l.
func WithAccessLog(l *slog.Logger) Option {
	return func(s *Server) { s.accessLog = l }
}

// WithTracer enables request-scoped tracing: each head-sampled request
// (or any request arriving with a sampled W3C traceparent) becomes a
// trace rooted at its route, with the engine's operation spans,
// book attempts and shortest-path calls as child spans, browsable via
// GET /v1/traces. Pass the same tracer the engine was configured with so
// bare engine traces (sim, bench) and HTTP traces share one store.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(s *Server) { s.tracer = tr }
}

// New builds a server. social may be nil (no social ranking).
func New(eng *core.Engine, social *core.SocialGraph, opts ...Option) *Server {
	s := &Server{eng: eng, social: social, mux: http.NewServeMux(), started: time.Now()}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		// /v1/metrics/prom must always work; without an injected registry
		// it serves the HTTP-layer series only.
		s.reg = telemetry.NewRegistry()
	}
	s.inflight = s.reg.Gauge(httpInflightName, "Requests currently being served.", nil)
	// Every exposition carries the build identity (info-gauge idiom);
	// healthz reports the same resolved values.
	s.build = telemetry.RegisterBuildInfo(s.reg)
	if mr := eng.MemComponents(); mr != nil {
		// The server owns two more memory-holding components; register
		// them after the engine's (attribution order favors earlier
		// components, and nothing here shares structure with them), then
		// sweep once so /v1/memory and the xar_memsize gauges are live
		// before the background worker's first tick.
		if s.tracer != nil {
			mr.Register("traces", s.tracer.Store())
		}
		if s.recorder != nil {
			mr.Register("recorder", s.recorder)
		}
		eng.MemSweep()
	}

	handle := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.instrument(route, h))
	}
	handle("POST /v1/rides", "/v1/rides", s.handleCreateRide)
	handle("GET /v1/rides/{id}", "/v1/rides/{id}", s.handleGetRide)
	handle("GET /v1/rides/{id}/route", "/v1/rides/{id}/route", s.handleRideRoute)
	handle("GET /v1/rides/{id}/timeline", "/v1/rides/{id}/timeline", s.handleRideTimeline)
	handle("GET /v1/events", "/v1/events", s.handleEvents)
	handle("DELETE /v1/rides/{id}", "/v1/rides/{id}", s.handleDeleteRide)
	handle("POST /v1/search", "/v1/search", s.handleSearch)
	handle("POST /v1/search/batch", "/v1/search/batch", s.handleSearchBatch)
	handle("POST /v1/bookings", "/v1/bookings", s.handleBook)
	handle("DELETE /v1/bookings", "/v1/bookings", s.handleCancel)
	handle("POST /v1/track", "/v1/track", s.handleTrack)
	handle("GET /v1/metrics", "/v1/metrics", s.handleMetrics)
	handle("GET /v1/metrics/prom", "/v1/metrics/prom", s.handleMetricsProm)
	handle("GET /v1/metrics/json", "/v1/metrics/json", s.handleMetricsJSON)
	handle("GET /v1/traces", "/v1/traces", s.handleTraces)
	handle("GET /v1/traces/{id}", "/v1/traces/{id}", s.handleTraceByID)
	handle("GET /v1/metrics/history", "/v1/metrics/history", s.handleMetricsHistory)
	handle("GET /v1/slo", "/v1/slo", s.handleSLO)
	handle("GET /v1/quality", "/v1/quality", s.handleQuality)
	handle("GET /v1/memory", "/v1/memory", s.handleMemory)
	handle("GET /v1/profiles", "/v1/profiles", s.handleProfiles)
	handle("GET /v1/profiles/diff", "/v1/profiles/diff", s.handleProfileDiff)
	handle("GET /v1/profiles/{id}", "/v1/profiles/{id}", s.handleProfileByID)
	handle("GET /v1/debug/bundle", "/v1/debug/bundle", s.handleDebugBundle)
	handle("GET /v1/healthz", "/v1/healthz", s.handleHealth)
	return s
}

// Registry returns the server's telemetry registry (the injected one,
// or the private default).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Handler returns the routable handler.
func (s *Server) Handler() http.Handler { return s.mux }

// --- wire types ---

// PointJSON is a latitude/longitude pair.
type PointJSON struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

func (p PointJSON) point() geo.Point { return geo.Point{Lat: p.Lat, Lng: p.Lng} }
func toJSON(p geo.Point) PointJSON   { return PointJSON{Lat: p.Lat, Lng: p.Lng} }

// CreateRideRequest is the POST /v1/rides body.
type CreateRideRequest struct {
	Source      PointJSON `json:"source"`
	Dest        PointJSON `json:"dest"`
	Departure   float64   `json:"departure"`
	Seats       int       `json:"seats,omitempty"`
	DetourLimit float64   `json:"detour_limit,omitempty"`
	Owner       int64     `json:"owner,omitempty"`
}

// CreateRideResponse returns the new ride's ID.
type CreateRideResponse struct {
	RideID int64 `json:"ride_id"`
}

// RideStatus is the GET /v1/rides/{id} body.
type RideStatus struct {
	RideID      int64     `json:"ride_id"`
	Source      PointJSON `json:"source"`
	Dest        PointJSON `json:"dest"`
	Departure   float64   `json:"departure"`
	SeatsAvail  int       `json:"seats_available"`
	SeatsTotal  int       `json:"seats_total"`
	DetourLeft  float64   `json:"detour_budget_m"`
	RouteNodes  int       `json:"route_nodes"`
	ViaPoints   int       `json:"via_points"`
	ProgressPct float64   `json:"progress_pct"`
}

// SearchRequest is the POST /v1/search body.
type SearchRequest struct {
	Source    PointJSON `json:"source"`
	Dest      PointJSON `json:"dest"`
	Earliest  float64   `json:"earliest_departure"`
	Latest    float64   `json:"latest_departure"`
	WalkLimit float64   `json:"walk_limit_m"`
	K         int       `json:"k,omitempty"`
	Requester int64     `json:"requester,omitempty"` // social ranking
}

func (sr SearchRequest) request() core.Request {
	return core.Request{
		Source:            sr.Source.point(),
		Dest:              sr.Dest.point(),
		EarliestDeparture: sr.Earliest,
		LatestDeparture:   sr.Latest,
		WalkLimit:         sr.WalkLimit,
	}
}

// MatchJSON is one search result; its fields are sufficient to book.
type MatchJSON struct {
	RideID         int64   `json:"ride_id"`
	PickupCluster  int     `json:"pickup_cluster"`
	DropoffCluster int     `json:"dropoff_cluster"`
	WalkSourceM    float64 `json:"walk_source_m"`
	WalkDestM      float64 `json:"walk_dest_m"`
	DetourEstM     float64 `json:"detour_estimate_m"`
	PickupETA      float64 `json:"pickup_eta"`
	DropoffETA     float64 `json:"dropoff_eta"`
}

// SearchResponse is the POST /v1/search reply.
type SearchResponse struct {
	Matches []MatchJSON `json:"matches"`
}

// BookRequest is the POST /v1/bookings body: the chosen match plus the
// original request (re-validated server-side).
type BookRequest struct {
	Match   MatchJSON     `json:"match"`
	Request SearchRequest `json:"request"`
}

// BookingJSON is the confirmed booking.
type BookingJSON struct {
	RideID        int64   `json:"ride_id"`
	PickupNode    int64   `json:"pickup_node"`
	DropoffNode   int64   `json:"dropoff_node"`
	PickupETA     float64 `json:"pickup_eta"`
	DropoffETA    float64 `json:"dropoff_eta"`
	WalkSourceM   float64 `json:"walk_source_m"`
	WalkDestM     float64 `json:"walk_dest_m"`
	DetourM       float64 `json:"detour_m"`
	ApproxErrorM  float64 `json:"approx_error_m"`
	ShortestPaths int     `json:"shortest_paths_run"`
}

// CancelRequest is the DELETE /v1/bookings body.
type CancelRequest struct {
	RideID      int64 `json:"ride_id"`
	PickupNode  int64 `json:"pickup_node"`
	DropoffNode int64 `json:"dropoff_node"`
}

// TrackRequest advances a ride by wall clock or GPS report.
type TrackRequest struct {
	RideID int64      `json:"ride_id"`
	Now    *float64   `json:"now,omitempty"`
	GPS    *PointJSON `json:"gps,omitempty"`
}

// TrackResponse reports arrival.
type TrackResponse struct {
	Arrived bool `json:"arrived"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// --- handlers ---

func (s *Server) handleCreateRide(w http.ResponseWriter, r *http.Request) {
	var req CreateRideRequest
	if !decode(w, r, &req) {
		return
	}
	id, err := s.eng.CreateRideCtx(r.Context(), core.RideOffer{
		Source:      req.Source.point(),
		Dest:        req.Dest.point(),
		Departure:   req.Departure,
		Seats:       req.Seats,
		DetourLimit: req.DetourLimit,
		Owner:       core.UserID(req.Owner),
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateRideResponse{RideID: int64(id)})
}

func (s *Server) handleGetRide(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	ride := s.eng.Ride(index.RideID(id))
	if ride == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown ride"})
		return
	}
	pct := 0.0
	if len(ride.Route) > 1 {
		pct = 100 * float64(ride.Progress) / float64(len(ride.Route)-1)
	}
	writeJSON(w, http.StatusOK, RideStatus{
		RideID:      int64(ride.ID),
		Source:      toJSON(ride.Source),
		Dest:        toJSON(ride.Dest),
		Departure:   ride.Departure,
		SeatsAvail:  ride.SeatsAvail,
		SeatsTotal:  ride.SeatsTotal,
		DetourLeft:  ride.DetourLimit,
		RouteNodes:  len(ride.Route),
		ViaPoints:   len(ride.Via),
		ProgressPct: pct,
	})
}

func (s *Server) handleRideRoute(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	doc, err := s.eng.RouteGeoJSON(index.RideID(id))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/geo+json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(doc)
}

func (s *Server) handleDeleteRide(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	if !s.eng.CompleteRide(index.RideID(id)) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown ride"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decode(w, r, &req) {
		return
	}
	matches, err := s.eng.SearchKCtx(r.Context(), req.request(), req.K)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Requester != 0 && s.social != nil {
		matches = s.eng.RankSocially(matches, core.UserID(req.Requester), s.social)
	}
	resp := SearchResponse{Matches: make([]MatchJSON, len(matches))}
	for i, m := range matches {
		resp.Matches[i] = matchJSON(m)
	}
	writeJSON(w, http.StatusOK, resp)
}

// matchJSON is a match's wire form.
func matchJSON(m core.Match) MatchJSON {
	return MatchJSON{
		RideID:         int64(m.Ride),
		PickupCluster:  m.PickupCluster,
		DropoffCluster: m.DropoffCluster,
		WalkSourceM:    m.WalkSource,
		WalkDestM:      m.WalkDest,
		DetourEstM:     m.DetourEstimate,
		PickupETA:      m.PickupETA,
		DropoffETA:     m.DropoffETA,
	}
}

// BatchSearchRequest is the POST /v1/search/batch body — the shape of an
// MMTP issuing its C(k+1,2) segment searches for one trip plan (§IX-B).
type BatchSearchRequest struct {
	Requests []SearchRequest `json:"requests"`
	K        int             `json:"k,omitempty"`
}

// BatchSearchResponse aligns with the request slice; failed entries have
// Error set and no matches.
type BatchSearchResponse struct {
	Results []BatchSearchResult `json:"results"`
}

// BatchSearchResult is one entry of a batch reply.
type BatchSearchResult struct {
	Matches []MatchJSON `json:"matches"`
	Error   string      `json:"error,omitempty"`
}

const maxBatchSize = 256

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSearchRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	}
	if len(req.Requests) > maxBatchSize {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("batch exceeds %d requests", maxBatchSize)})
		return
	}
	reqs := make([]core.Request, len(req.Requests))
	for i, sr := range req.Requests {
		reqs[i] = sr.request()
	}
	results, errs := s.eng.SearchBatchCtx(r.Context(), reqs, req.K)
	resp := BatchSearchResponse{Results: make([]BatchSearchResult, len(reqs))}
	for i := range reqs {
		if errs[i] != nil {
			resp.Results[i].Error = errs[i].Error()
			continue
		}
		ms := make([]MatchJSON, len(results[i]))
		for j, m := range results[i] {
			ms[j] = matchJSON(m)
		}
		resp.Results[i].Matches = ms
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBook(w http.ResponseWriter, r *http.Request) {
	var req BookRequest
	if !decode(w, r, &req) {
		return
	}
	// The engine re-derives the support pair from the clusters, so a
	// Match rebuilt from wire fields is sufficient and tamper-safe.
	m := core.Match{
		Ride:           index.RideID(req.Match.RideID),
		PickupCluster:  req.Match.PickupCluster,
		DropoffCluster: req.Match.DropoffCluster,
	}
	bk, err := s.eng.BookCtx(r.Context(), m, req.Request.request())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, BookingJSON{
		RideID:        int64(bk.Ride),
		PickupNode:    int64(bk.PickupNode),
		DropoffNode:   int64(bk.DropoffNode),
		PickupETA:     bk.PickupETA,
		DropoffETA:    bk.DropoffETA,
		WalkSourceM:   bk.WalkSource,
		WalkDestM:     bk.WalkDest,
		DetourM:       bk.DetourActual,
		ApproxErrorM:  bk.ApproxError(),
		ShortestPaths: bk.ShortestPathRuns,
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req CancelRequest
	if !decode(w, r, &req) {
		return
	}
	err := s.eng.CancelBookingCtx(r.Context(), index.RideID(req.RideID),
		roadnet.NodeID(req.PickupNode), roadnet.NodeID(req.DropoffNode))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	var req TrackRequest
	if !decode(w, r, &req) {
		return
	}
	var arrived bool
	var err error
	switch {
	case req.GPS != nil:
		arrived, err = s.eng.TrackPositionCtx(r.Context(), index.RideID(req.RideID), req.GPS.point())
	case req.Now != nil:
		arrived, err = s.eng.TrackCtx(r.Context(), index.RideID(req.RideID), *req.Now)
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "track needs now or gps"})
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TrackResponse{Arrived: arrived})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Metrics())
}

// HealthResponse is the GET /v1/healthz body. Beyond the static
// discretization facts it carries uptime and the cumulative engine
// counters, so a load balancer (or a human) can tell a wedged engine —
// uptime climbing, counters frozen — from an idle one. With an SLO
// engine wired (WithSLO), Status is the worst objective state
// (ok/warn/page) instead of the static "ok" — a load balancer draining
// on status != "ok" then sheds from a latency-burning instance.
type HealthResponse struct {
	Status        string       `json:"status"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	ActiveRides   int          `json:"active_rides"`
	Clusters      int          `json:"clusters"`
	Landmarks     int          `json:"landmarks"`
	EpsilonM      float64      `json:"epsilon_m"`
	Engine        core.Metrics `json:"engine"`
	LookToBook    float64      `json:"look_to_book"`
	MatchRate     float64      `json:"match_rate"`
	// Audit summarizes the invariant auditor (WithAuditor): cumulative
	// violation count and the last sweep's coverage. Any violation ever
	// found escalates Status to "page".
	Audit *audit.Health `json:"audit,omitempty"`
	// Build identifies the running binary (ldflags-stamped version and
	// commit, plus the Go toolchain) — the same identity the
	// xar_build_info metric carries.
	Build telemetry.Build `json:"build"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	d := s.eng.Disc()
	m := s.eng.Metrics()
	resp := HealthResponse{
		Status:        s.healthStatus(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		ActiveRides:   s.eng.NumRides(),
		Clusters:      d.NumClusters(),
		Landmarks:     len(d.Landmarks),
		EpsilonM:      d.Epsilon(),
		Engine:        m,
		LookToBook:    m.LookToBookRatio(),
		MatchRate:     m.MatchRate(),
		Build:         s.build,
	}
	if s.auditor != nil {
		h := s.auditor.Health()
		resp.Audit = &h
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- plumbing ---

// maxBodyBytes bounds every request body the server reads; a full
// maxBatchSize batch is ≈ 40 KB.
const maxBodyBytes = 1 << 20

func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// allowParams reports whether every parameter of q is one of names;
// otherwise it has answered 400 naming the allowed set. A typo'd
// parameter must not silently fall back to the default listing.
func allowParams(w http.ResponseWriter, q url.Values, names ...string) bool {
	for key := range q {
		if !slices.Contains(names, key) {
			want := "endpoint takes none"
			if len(names) > 0 {
				want = "want " + strings.Join(names, ", ")
			}
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown query parameter %q (%s)", key, want)})
			return false
		}
	}
	return true
}

// parseLimit reads the optional limit parameter, an integer in [1, max]
// (0 when absent); ok is false once it has answered 400.
func parseLimit(w http.ResponseWriter, q url.Values, max int) (n int, ok bool) {
	v := q.Get("limit")
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 || n > max {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("limit must be an integer in [1, %d]", max)})
		return 0, false
	}
	return n, true
}

func pathID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid ride id"})
		return 0, false
	}
	return id, true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps engine errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, core.ErrUnknownRide):
		status = http.StatusNotFound
	case errors.Is(err, core.ErrNotServable),
		errors.Is(err, core.ErrUnreachable):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrRideFull),
		errors.Is(err, core.ErrNoLongerFeasible),
		errors.Is(err, core.ErrDetourExceeded):
		status = http.StatusConflict
	default:
		// Validation failures from the engine are client errors.
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}
