// Package core implements the XAR run-time unit: creating ride offers,
// the optimized two-step ride search (§VII of the paper), ride tracking
// (§VIII-A) and ride booking (§VIII-B).
//
// The central design decision reproduced here is that the search path
// performs *no shortest-path computation*: candidate generation and all
// feasibility checks run on the precomputed cluster structures of the
// in-memory index. Shortest paths are computed exactly twice in a ride's
// life-cycle — when the offer is created and when a booking is confirmed
// (at most four single-pair searches per booking, per the paper).
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xar/internal/discretize"
	"xar/internal/geo"
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// Sentinel errors returned by the engine.
var (
	// ErrNotServable means a location has neither a landmark within Δ nor
	// any walkable cluster: the system cannot serve it (§IV).
	ErrNotServable = errors.New("xar: location not servable by the discretization")
	// ErrUnknownRide means the ride ID is not registered.
	ErrUnknownRide = errors.New("xar: unknown ride")
	// ErrRideFull means the ride has no seats left.
	ErrRideFull = errors.New("xar: ride has no available seats")
	// ErrNoLongerFeasible means the match became invalid between search
	// and booking (the ride moved, or another booking consumed the
	// detour budget).
	ErrNoLongerFeasible = errors.New("xar: match no longer feasible")
	// ErrDetourExceeded means the exact booking detour exceeds the
	// ride's remaining budget plus the 4ε approximation allowance.
	ErrDetourExceeded = errors.New("xar: booking detour exceeds limit")
	// ErrUnreachable means no driving route connects the endpoints.
	ErrUnreachable = errors.New("xar: no route between endpoints")
)

// Config tunes the engine.
type Config struct {
	// DefaultDetourLimit (meters) applies to offers that leave
	// DetourLimit zero.
	DefaultDetourLimit float64
	// DefaultSeats applies to offers that leave Seats zero. The paper's
	// simulation assumes taxi capacity 4 including the driver.
	DefaultSeats int
	// UseALTPaths is a no-op: every engine routes with ALT, so there is
	// nothing left for it to turn on. It stays only because
	// benchmark/httpserver.go still assigns it.
	UseALTPaths bool
	// Observers are what watches the engine; the zero value watches
	// nothing. Embedded, so cfg.Telemetry names cfg.Observers.Telemetry.
	Observers
}

// Observers are the engine's optional instruments and the rates and
// thresholds beside them. Memory accounting is not among them: every
// engine keeps its component registry (MemComponents) and sweeps when
// asked (MemSweep). Nor is the continuous profiler: it watches the
// process, not the engine, and the server takes it
// (server.WithProfiler).
type Observers struct {
	// Telemetry, when non-nil, records per-operation latency histograms
	// (xar_op_duration_seconds) and the per-stage search breakdown
	// (xar_search_stage_duration_seconds) into the registry. Nil leaves
	// the hot paths uninstrumented (one nil check per operation).
	Telemetry *telemetry.Registry
	// SearchSampleRate samples 1-in-N searches for full op + stage
	// latency tracing (rounded up to a power of two). Searches are the
	// sub-microsecond hot path, so timing every one would dominate its
	// cost; unsampled searches pay a single atomic increment. 0 →
	// DefaultSearchSampleRate; 1 → trace every search (tests,
	// low-traffic deployments); negative fails NewEngine. Other
	// operations are always recorded.
	SearchSampleRate int
	// SlowOpThreshold enables the slow-operation log: any engine
	// operation taking at least this long is logged at Warn level.
	// Zero disables the log; negative fails NewEngine.
	SlowOpThreshold time.Duration
	// SlowOpLogger receives slow-operation records; nil with a non-zero
	// threshold falls back to slog.Default().
	SlowOpLogger *slog.Logger
	// Tracer, when non-nil, records request-scoped span trees: each
	// head-sampled engine operation becomes a trace whose spans cover a
	// search's side lookup, each optimistic-book attempt and each
	// shortest-path call, stored in the tracer's ring buffer and served
	// via /v1/traces. Slow and errored traces are always kept. Nil
	// disables root minting, but the engine still records child spans
	// into traces begun upstream (an HTTP middleware root in the
	// context). See DESIGN.md §Tracing model.
	Tracer *telemetry.Tracer
	// Journal, when non-nil, records every ride-lifecycle event
	// (created, booked, splice-committed, conflict-retried, cancelled,
	// picked-up, dropped-off, completed — plus search-candidate events
	// for metrics-sampled searches) into bounded per-ride rings
	// with trace-ID cross-links. Nil leaves the hot paths free of
	// journaling (one nil check per emit site). See OBSERVABILITY.md
	// "Event journal & auditing".
	Journal *journal.Journal
	// Quality, when non-nil, turns on match-quality accounting: every
	// search classifies each candidate it examined into exactly one
	// rejection-funnel stage (xar_search_funnel_total{stage}), and every
	// confirmed booking records its approximation-gap ratios
	// (xar_detour_slack_ratio, xar_epsilon_consumption_ratio). The
	// collector is deliberately separate from Telemetry so the quality
	// layer can be toggled without perturbing the latency baselines. Nil
	// leaves the search loop free of funnel counting (one nil check per
	// search). See OBSERVABILITY.md "Match quality".
	Quality *quality.Collector
	// ShadowSampleRate enables the shadow counterfactual matcher on top
	// of Quality: 1-in-N no-match searches are re-run off the request
	// path with systematically relaxed constraints to attribute the
	// binding constraint (xar_shadow_unlock_total{constraint}), and
	// 1-in-N bookings are re-matched against the post-booking candidate
	// set to measure greedy regret. Rounded up to a power of two; 0
	// disables the shadow matcher (the default); 1 shadows every
	// eligible request (tests). Requires Quality; counterfactual
	// searches never touch metrics, traces, the journal, or the funnel.
	ShadowSampleRate int
}

// destWindowSlack (seconds) widens the destination-side time window: the
// ride reaches the drop-off cluster after the pickup, up to one maximum
// trip duration later.
const destWindowSlack = 3600.0

// DefaultConfig returns production defaults.
func DefaultConfig() Config {
	return Config{
		DefaultDetourLimit: 2000,
		DefaultSeats:       4,
	}
}

// RideOffer is the input of CreateRide.
type RideOffer struct {
	Source, Dest geo.Point
	Departure    float64 // seconds since epoch
	Seats        int     // total capacity incl. driver (0 → default)
	DetourLimit  float64 // meters the driver accepts (0 → default)
	Owner        UserID  // driver identity for social ranking (optional)
}

// Request is a ride request (§VII): source, destination, departure time
// window and walking threshold.
type Request struct {
	Source, Dest geo.Point
	// EarliestDeparture/LatestDeparture bound the pickup time.
	EarliestDeparture, LatestDeparture float64
	// WalkLimit is the requester's maximum total walking distance in
	// meters (source-side walk + destination-side walk).
	WalkLimit float64
}

// Validate reports request errors.
func (r Request) Validate() error {
	if !r.Source.Valid() || !r.Dest.Valid() {
		return fmt.Errorf("xar: invalid request coordinates")
	}
	if math.IsNaN(r.EarliestDeparture) || math.IsNaN(r.LatestDeparture) {
		return fmt.Errorf("xar: NaN in departure window [%v, %v]", r.EarliestDeparture, r.LatestDeparture)
	}
	if r.LatestDeparture < r.EarliestDeparture {
		return fmt.Errorf("xar: inverted departure window [%v, %v]", r.EarliestDeparture, r.LatestDeparture)
	}
	if r.WalkLimit < 0 || math.IsNaN(r.WalkLimit) {
		return fmt.Errorf("xar: walk limit %v is negative or NaN", r.WalkLimit)
	}
	return nil
}

// Match is one feasible ride option for a request. All quantities come
// from the index (cluster distances) — no shortest path was computed.
type Match struct {
	Ride           index.RideID
	PickupCluster  int
	DropoffCluster int
	WalkSource     float64 // meters of walking at the source side
	WalkDest       float64 // meters of walking at the destination side
	DetourEstimate float64 // meters of extra driving, cluster-approximated
	PickupETA      float64 // ride's estimated arrival in the pickup cluster
	DropoffETA     float64
}

// TotalWalk is the match's combined walking distance, the quantity the
// paper's simulation minimizes when choosing among multiple matches.
func (m Match) TotalWalk() float64 { return m.WalkSource + m.WalkDest }

// Booking is the confirmed result of Book. DetourEstimate is the detour
// predicted before any shortest path ran: the landmark-distance chain
// through the neighbouring via-points and the chosen pickup and drop-off
// landmarks (refineDetourEstimate), or the matched supports'
// cluster-distance detours when a via node has no landmark within Δ.
// The chain reads the region's 16-bit landmark table, whose unit is the
// longest landmark distance / 65 535, so it is within three units of the
// chain the exact distances give.
type Booking struct {
	Ride             index.RideID
	PickupLandmark   int
	DropoffLandmark  int
	PickupNode       roadnet.NodeID
	DropoffNode      roadnet.NodeID
	PickupETA        float64
	DropoffETA       float64
	WalkSource       float64
	WalkDest         float64
	DetourEstimate   float64 // predicted before any shortest path; see Booking
	DetourActual     float64 // what the spliced route actually costs
	ShortestPathRuns int     // ≤ 4, per §VIII-B
}

// ApproxError is how much the exact detour exceeded DetourEstimate, the
// landmark-distance estimate (the cluster estimate where a via node has
// no landmark within Δ), and 0 when it did not; like the estimate, it is
// resolved to three landmark-table units. The paper bounds the
// approximation's additive error by 4ε and evaluates its CDF in Figure 3a.
func (b Booking) ApproxError() float64 {
	e := b.DetourActual - b.DetourEstimate
	if e < 0 {
		return 0
	}
	return e
}

// Engine is the XAR run-time unit. Safe for concurrent use: the ride
// index sits behind one RWMutex (a search holds the read lock while it
// reads, a mutation the write lock while it writes) and lists only rides
// with a free seat, shortest-path computation runs on pooled
// per-goroutine searchers outside any lock, and bookings and
// cancellations commit optimistically (snapshot → compute unlocked →
// commit under the write lock iff the ride is unchanged, retrying on
// conflict).
// See DESIGN.md §Concurrency model.
type Engine struct {
	cfg  Config
	disc *discretize.Discretization

	ix *index.Locked

	// finders pools pathFinder instances (the Graph and ALT landmark
	// tables are immutable and shared; only the O(n) stamp/dist/prev
	// scratch is per-instance), so shortest-path work never holds any
	// engine lock and concurrent creates/bookings never contend. Its
	// New makes an ALT searcher (tests swap in a pool of plain A* as
	// their oracle).
	//
	// Both pools are their own allocations, their New functions capture
	// only immutable tables (finders the ALT tables, scratchPool
	// nothing), and nothing pooled points at engine state. The runtime's
	// pool registry keeps a used pool reachable through the next
	// collection; a pool embedded in Engine, or one whose New captured
	// e, would keep the whole dropped engine (index, rides, posting
	// lists) alive with it.
	finders *sync.Pool

	// scratchPool recycles per-search working sets (candidate
	// set, posting-list pull buffer, match buffer) so a search allocates
	// nothing per candidate it examines or match it finds.
	scratchPool *sync.Pool

	// routeQueries counts shortest-path queries under the algo label
	// RouterALT. Nil without telemetry.
	routeQueries *telemetry.Counter

	m       *metrics           // its own allocation: the xar_match_rate gauge holds it
	tel     *engineTelemetry   // nil → uninstrumented
	jr      *journal.Journal   // nil → no event journaling
	quality *quality.Collector // nil → no funnel/approximation accounting
	shadow  *shadowMatcher     // nil → no counterfactual re-matching
	mem     memoryMonitor      // the component registry and its last sweep
}

// RouterALT is the routing algorithm every engine runs, as Engine.Router()
// reports it and as spans and xar_route_queries_total label it.
const RouterALT = "alt"

// pathFinder is the slice of the routing layer the engine needs; the ALT
// searcher satisfies it, and so does plain A* (roadnet.Searcher).
type pathFinder interface {
	ShortestPath(a, b roadnet.NodeID) roadnet.SPResult
}

// NewEngine builds an engine over a discretization. The index and the
// router's tables are built side by side; NewEngine returns after both.
func NewEngine(disc *discretize.Discretization, cfg Config) (*Engine, error) {
	if !finite(cfg.DefaultDetourLimit) || cfg.DefaultDetourLimit < 0 {
		return nil, fmt.Errorf("xar: DefaultDetourLimit %v is negative or not finite", cfg.DefaultDetourLimit)
	}
	if cfg.DefaultSeats < 0 {
		return nil, fmt.Errorf("xar: negative DefaultSeats")
	}
	if cfg.SearchSampleRate < 0 {
		return nil, fmt.Errorf("xar: negative SearchSampleRate")
	}
	if cfg.SlowOpThreshold < 0 {
		return nil, fmt.Errorf("xar: negative SlowOpThreshold")
	}
	if cfg.ShadowSampleRate < 0 {
		return nil, fmt.Errorf("xar: negative ShadowSampleRate")
	}
	if cfg.ShadowSampleRate > 0 && cfg.Quality == nil {
		return nil, fmt.Errorf("xar: ShadowSampleRate requires Config.Quality")
	}
	// The index's neighbour table and the ALT tables (8 landmarks: two
	// full Dijkstras each) read only the discretization and its graph, so
	// they are built side by side.
	var ix *index.Index
	ixBuilt := make(chan struct{})
	go func() {
		defer close(ixBuilt)
		ix = index.New(disc)
	}()
	g := disc.City().Graph
	alt, err := roadnet.NewALT(g, 0) // 0: roadnet's default landmark count (8)
	<-ixBuilt
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		disc:        disc,
		ix:          &index.Locked{Ix: ix},
		finders:     &sync.Pool{New: func() any { return alt.NewSearcher() }},
		scratchPool: &sync.Pool{New: func() any { return newSearchScratch() }},
		m:           new(metrics),
		jr:          cfg.Journal,
	}
	if cfg.Telemetry != nil || cfg.SlowOpThreshold > 0 || cfg.Tracer != nil {
		e.tel = newEngineTelemetry(cfg.Telemetry, cfg.Tracer, cfg.SearchSampleRate, cfg.SlowOpThreshold, cfg.SlowOpLogger)
	}
	if cfg.Telemetry != nil {
		e.routeQueries = cfg.Telemetry.Counter("xar_route_queries_total",
			"Shortest-path queries served, by routing algorithm.",
			telemetry.L("algo", RouterALT))
	}
	if cfg.Telemetry != nil {
		registerIndexGauges(cfg.Telemetry, ix.Occupancy())
		// Cumulative match rate as a gauge so the flight recorder picks
		// up its history alongside the op-latency series. The closure
		// holds the counter block, not the engine.
		m := e.m
		cfg.Telemetry.GaugeFunc("xar_match_rate",
			"Average matches returned per search, cumulative since engine start.",
			nil, func() float64 {
				return Metrics{Searches: m.searches.Load(), SearchMatches: m.searchMatches.Load()}.MatchRate()
			})
	}
	if cfg.Quality != nil {
		e.quality = cfg.Quality
		if cfg.ShadowSampleRate > 0 {
			e.shadow = newShadowMatcher(e, cfg.Quality, cfg.ShadowSampleRate)
			cfg.Quality.SetShadowEnabled(true)
		}
	}
	// Attribution order matters: shared substrates first (the graph is
	// reachable from the ALT tables, the discretization, and the index;
	// the discretization from the index), so each component reports only
	// the bytes it uniquely owns and the shares sum cleanly.
	mr := &e.mem.comps
	mr.Register("graph", g)
	mr.Register("alt", alt)
	mr.Register("discretization", disc)
	mr.Register("index", e.ix.View())
	if cfg.Journal != nil {
		mr.Register("journal", cfg.Journal)
	}
	if cfg.Quality != nil {
		mr.Register("quality", cfg.Quality)
	}
	return e, nil
}

// Quality returns the engine's match-quality collector (nil when
// Config.Quality was not set).
func (e *Engine) Quality() *quality.Collector { return e.quality }

// Close stops the engine's background work — the shadow counterfactual
// matcher's worker, after draining its queue. The engine itself stays
// fully usable (searches, bookings); only the background loop ends.
// Safe to call more than once, and a no-op without the shadow matcher.
func (e *Engine) Close() {
	if e.shadow != nil {
		e.shadow.close()
	}
}

// tracedShortestPath runs one pooled shortest-path search under a
// "path_search" span when the context's trace is recording; the span
// carries the endpoints and the resulting distance, so a slow create /
// book / cancel trace shows exactly which ALT call dominated.
// Without a recording trace this is one context lookup plus the search.
// The nodes the search labelled are added to labels, unless it is nil.
func (e *Engine) tracedShortestPath(ctx context.Context, f pathFinder, a, b roadnet.NodeID, labels *atomic.Uint64) roadnet.SPResult {
	_, span := telemetry.ChildSpan(ctx, "path_search")
	res := f.ShortestPath(a, b)
	e.m.shortestPaths.Add(1)
	if l, ok := f.(interface{ LabelledNodes() int }); ok && labels != nil {
		labels.Add(uint64(l.LabelledNodes()))
	}
	if e.routeQueries != nil {
		e.routeQueries.Inc()
	}
	if span != nil {
		span.SetInt("from", int64(a))
		span.SetInt("to", int64(b))
		span.SetFloat("dist", res.Dist)
		span.SetStr("algo", RouterALT)
		if !res.Reachable() {
			span.SetErrorMsg("unreachable")
		}
		span.End()
	}
	return res
}

// Router returns the routing algorithm, RouterALT.
func (e *Engine) Router() string { return RouterALT }

// finder checks a pathFinder out of the pool; release returns it. The
// checkout pattern (rather than a per-engine instance) is what lets any
// number of concurrent creates/bookings run shortest paths without
// serializing on a lock.
func (e *Engine) finder() pathFinder { return e.finders.Get().(pathFinder) }

func (e *Engine) release(f pathFinder) { e.finders.Put(f) }

// Disc returns the engine's discretization.
func (e *Engine) Disc() *discretize.Discretization { return e.disc }

// Index returns a read-only, internally synchronized view of the ride
// index (memory measurement, invariant checks, diagnostics). The view's
// methods take the index's read lock, so it is safe to use while the
// engine serves traffic; deep-size measurement via reflection remains
// quiescent-only.
func (e *Engine) Index() index.View { return e.ix.View() }

// NumRides returns the number of active rides.
func (e *Engine) NumRides() int {
	return e.ix.NumRides()
}

// CreateRide registers a new ride offer: it snaps the endpoints to road
// nodes, computes the (one) shortest path of the ride's life-cycle,
// derives per-node ETAs from edge travel times, and indexes the ride's
// pass-through and reachable clusters.
func (e *Engine) CreateRide(offer RideOffer) (index.RideID, error) {
	return e.CreateRideCtx(context.Background(), offer)
}

// CreateRideCtx is CreateRide with trace propagation: the operation and
// its shortest-path call become spans of the context's trace (or of a
// new head-sampled trace when Config.Tracer is set).
func (e *Engine) CreateRideCtx(ctx context.Context, offer RideOffer) (id index.RideID, err error) {
	if !offer.Source.Valid() || !offer.Dest.Valid() {
		return 0, fmt.Errorf("xar: invalid offer coordinates")
	}
	if !finite(offer.Departure) {
		return 0, fmt.Errorf("xar: offer departure %v is not finite", offer.Departure)
	}
	seats := offer.Seats
	if seats == 0 {
		seats = e.cfg.DefaultSeats
	}
	if seats < 2 {
		return 0, fmt.Errorf("xar: offer needs capacity >= 2 (driver + rider), got %d", seats)
	}
	detour := offer.DetourLimit
	if detour == 0 {
		detour = e.cfg.DefaultDetourLimit
	}
	if !finite(detour) || detour < 0 {
		return 0, fmt.Errorf("xar: detour limit %v is negative or not finite", detour)
	}
	ctx, span, start := e.tel.beginOp(ctx, opCreate)
	defer e.tel.endOp(opCreate, start, span, &err)

	// Snap + route + ETAs touch only the immutable city/graph: no lock.
	city := e.disc.City()
	srcNode, _ := city.SnapToNode(offer.Source)
	dstNode, _ := city.SnapToNode(offer.Dest)
	if srcNode == roadnet.InvalidNode || dstNode == roadnet.InvalidNode {
		return 0, ErrNotServable
	}
	if srcNode == dstNode {
		return 0, fmt.Errorf("xar: offer endpoints snap to the same road node")
	}
	f := e.finder()
	res := e.tracedShortestPath(ctx, f, srcNode, dstNode, &e.m.createLabels)
	e.release(f)
	if !res.Reachable() {
		return 0, ErrUnreachable
	}
	walk, err := city.Graph.WalkRoute(res.Path, offer.Departure, roadnet.Splice{})
	if err != nil {
		return 0, fmt.Errorf("xar: offer route invalid: %w", err)
	}

	r := &index.Ride{
		ID:                 e.ix.NextID(),
		Owner:              int64(offer.Owner),
		Source:             offer.Source,
		Dest:               offer.Dest,
		Departure:          offer.Departure,
		SeatsTotal:         seats,
		SeatsAvail:         seats - 1, // driver occupies one
		Route:              res.Path,
		DetourLimit:        detour,
		DetourLimitInitial: detour,
		BaseRouteLen:       res.Dist,
		RouteETA:           walk.ETA,
	}
	r.Via = []index.ViaPoint{
		{RouteIdx: 0, Node: srcNode, ETA: r.RouteETA[0], Kind: index.ViaSource},
		{RouteIdx: len(res.Path) - 1, Node: dstNode, ETA: r.RouteETA[len(res.Path)-1], Kind: index.ViaDest},
	}
	// Journal the creation BEFORE the ride becomes searchable: once
	// Insert returns, a concurrent search + book can journal "booked",
	// and the causality invariant (no lifecycle event before created)
	// must hold by construction, not by luck.
	if e.jr != nil { // the note is built for a journal only
		e.recordEvent(journal.Created, r.ID, span, detour, "seats="+strconv.Itoa(seats))
	}
	// Only the registration itself needs the index — one write lock, no
	// shortest-path work inside it.
	e.ix.Lock()
	err = e.ix.Ix.Insert(r)
	e.ix.Unlock()
	if err != nil {
		return 0, err
	}
	e.m.ridesCreated.Add(1)
	return r.ID, nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ConfigSummary returns the engine's effective configuration and world
// dimensions as a flat, JSON-friendly map — the "what exactly was this
// process running" member of the diagnostic bundle. Only scalars derived
// from Config and the discretization; nothing mutable or per-request.
func (e *Engine) ConfigSummary() map[string]any {
	sampleRate := e.cfg.SearchSampleRate
	if sampleRate <= 0 {
		sampleRate = DefaultSearchSampleRate
	}
	return map[string]any{
		"default_detour_limit_m": e.cfg.DefaultDetourLimit,
		"default_seats":          e.cfg.DefaultSeats,
		"dest_window_slack_s":    destWindowSlack,
		"router":                 RouterALT,
		"search_sample_rate":     sampleRate,
		"slow_op_threshold_ms":   float64(e.cfg.SlowOpThreshold) / float64(time.Millisecond),
		"quality":                e.quality != nil,
		"shadow_sample_rate":     e.cfg.ShadowSampleRate,
		"epsilon_m":              e.disc.Epsilon(),
		"num_clusters":           e.disc.NumClusters(),
		"num_landmarks":          len(e.disc.Landmarks),
		"road_nodes":             e.disc.City().Graph.NumNodes(),
		"active_rides":           e.NumRides(),
	}
}

// Ride returns a snapshot of a ride (nil if unknown): a deep copy taken
// under the index's read lock, so the caller can inspect it
// without racing concurrent bookings or tracking.
func (e *Engine) Ride(id index.RideID) *index.Ride {
	return e.ix.Snapshot(id)
}

// CompleteRide removes a finished or cancelled ride from the system.
func (e *Engine) CompleteRide(id index.RideID) bool {
	if e.tel != nil {
		defer func(start time.Time) { e.tel.observeOp(opComplete, time.Since(start), nil, nil) }(time.Now())
	}
	e.ix.Lock()
	removed := e.ix.Ix.Remove(id)
	e.ix.Unlock()
	if !removed {
		return false
	}
	e.m.ridesCompleted.Add(1)
	e.recordEvent(journal.Completed, id, nil, 0, "")
	return true
}
