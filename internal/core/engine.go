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
	"strconv"
	"sync"
	"time"

	"xar/internal/discretize"
	"xar/internal/geo"
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/memsize"
	"xar/internal/profile"
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
	// Index is passed through to the in-memory index.
	Index index.Config
	// DefaultDetourLimit (meters) applies to offers that leave
	// DetourLimit zero.
	DefaultDetourLimit float64
	// DefaultSeats applies to offers that leave Seats zero. The paper's
	// simulation assumes taxi capacity 4 including the driver.
	DefaultSeats int
	// StrictDetour rejects bookings whose exact detour exceeds the
	// remaining budget at all; the default allows the paper's additive
	// 4ε approximation overshoot.
	StrictDetour bool
	// UseALTPaths is a no-op: ALT is what an empty Router means, so there
	// is nothing left for it to turn on. Callers may keep assigning it;
	// setting Router "astar" is the only way to plain A*.
	UseALTPaths bool
	// Router selects the shortest-path engine: "astar", "alt", or "ch".
	// Empty picks the fastest exact one at hand — "ch" when CH is set,
	// else "alt" (8 landmarks: two full Dijkstras each at construction,
	// ≈ 10 ms and 128 B a node on 3 520 nodes). All three return
	// identical distances; only speed (and preprocessing cost) differs,
	// and plain "astar" is kept as the oracle the other two are tested
	// against. Router "ch" without a prebuilt CH builds one at engine
	// construction under CHBudget and falls back to ALT if the budget is
	// exceeded; the effective choice is reported by Router() /
	// ConfigSummary and stamped on telemetry.
	Router string
	// CH is a prebuilt contraction hierarchy over the discretization's
	// road graph (roadnet.BuildCH, or LoadCH of an xardiscretize -ch
	// artifact). Implies Router "ch" when Router is empty.
	CH *roadnet.CH
	// CHBudget bounds in-process CH preprocessing when Router is "ch"
	// and no prebuilt CH is given; exceeding it falls back to ALT
	// instead of failing engine construction. 0 → unbudgeted.
	CHBudget time.Duration
	// UseCongestionProfile scales ETA computation by the time-of-day
	// congestion factor (roadnet.SpeedFactor): rides departing in the AM
	// or PM peak take up to ~1.8× longer than free flow, which the
	// paper's "time of arrival is estimated from historical travel
	// times" prescribes. Route geometry is unaffected.
	UseCongestionProfile bool
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
	// low-traffic deployments). Other operations are always recorded.
	SearchSampleRate int
	// SlowOpThreshold enables the slow-operation log: any engine
	// operation taking at least this long is logged at Warn level.
	// Zero disables the log.
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
	// for metrics-sampled searches) into fixed-memory per-ride rings
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
	// Memory, when non-nil, turns on live per-component memory
	// accounting: the engine registers every memory-owning subsystem it
	// builds or is given (road graph, ALT tables, CH, discretization,
	// ride index, journal, quality collector) into the registry in
	// attribution order — shared substrates first, so each component's
	// bytes are non-overlapping — and exposes sweeps via MemSweep /
	// LastMemReport. With Telemetry also set, every sweep publishes
	// xar_memsize_bytes{component}, xar_memsize_total_bytes, and the
	// xar_rides_per_gb frontier gauge, all of which the flight recorder
	// picks up like any other series. See OBSERVABILITY.md "Memory".
	Memory *memsize.Registry
	// MemSweepInterval starts a background sweep worker on that cadence
	// (requires Memory). The worker duty-cycles itself — it sleeps at
	// least 99× the last sweep's duration — so accounting stays within a
	// ≤1%-of-one-core budget no matter how large the fleet grows. 0
	// leaves sweeping on-demand only (MemSweep / the HTTP handler).
	MemSweepInterval time.Duration

	// Profiling attaches a continuous profiler. The engine owns its
	// lifecycle: with ProfileInterval > 0 the capture worker starts in
	// NewEngine and stops in Close; with 0 the profiler stays
	// capture-on-demand (CaptureNow / the HTTP handlers). With Memory
	// also set, the profiler's rings are registered as the "profiles"
	// memory component. See OBSERVABILITY.md "Continuous profiling".
	Profiling *profile.Profiler
	// ProfileInterval is the capture cadence (requires Profiling). The
	// worker duty-cycles its active work the same way the memory
	// sweeper does, staying within ≤1% of one core.
	ProfileInterval time.Duration
}

// destWindowSlack (seconds) widens the destination-side time window: the
// ride reaches the drop-off cluster after the pickup, up to one maximum
// trip duration later.
const destWindowSlack = 3600.0

// DefaultConfig returns production defaults.
func DefaultConfig() Config {
	return Config{
		Index:              index.DefaultConfig(),
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
	if r.LatestDeparture < r.EarliestDeparture {
		return fmt.Errorf("xar: inverted departure window [%v, %v]", r.EarliestDeparture, r.LatestDeparture)
	}
	if r.WalkLimit < 0 {
		return fmt.Errorf("xar: negative walk limit %v", r.WalkLimit)
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
	pickupOrder    int // route order of the supporting pass-through
	dropoffOrder   int
	pickupSegv     int // segment of the supporting pass-through (pickup)
	dropoffSegv    int // segment of the supporting pass-through (drop-off)
}

// TotalWalk is the match's combined walking distance, the quantity the
// paper's simulation minimizes when choosing among multiple matches.
func (m Match) TotalWalk() float64 { return m.WalkSource + m.WalkDest }

// Booking is the confirmed result of Book.
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
	DetourEstimate   float64 // what the index predicted (cluster distances)
	DetourActual     float64 // what the spliced route actually costs
	ShortestPathRuns int     // ≤ 4, per §VIII-B
}

// ApproxError is the additive error of the cluster approximation for this
// booking: how much the exact detour exceeded the estimate. The paper
// bounds it by 4ε and evaluates its CDF in Figure 3a.
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
	// engine lock and concurrent creates/bookings never contend.
	finders   sync.Pool
	newFinder func() pathFinder

	// scratchPool recycles per-search working sets (candidate
	// set, posting-list pull buffer, match buffer) so a search allocates
	// nothing per candidate it examines or match it finds.
	scratchPool sync.Pool

	// router is the effective routing algorithm ("astar", "alt", "ch")
	// after auto-selection and CH-budget fallback — the value stamped on
	// spans and xar_route_queries_total.
	router string
	// routeQueries counts shortest-path queries under the effective
	// algo label. Nil without telemetry.
	routeQueries *telemetry.Counter

	m        metrics
	tel      *engineTelemetry   // nil → uninstrumented
	jr       *journal.Journal   // nil → no event journaling
	quality  *quality.Collector // nil → no funnel/approximation accounting
	shadow   *shadowMatcher     // nil → no counterfactual re-matching
	mem      *memoryMonitor     // nil → no memory accounting
	profiler *profile.Profiler  // nil → no continuous profiling
}

// Router values for Config.Router, and the strings Engine.Router()
// reports.
const (
	RouterAStar = "astar"
	RouterALT   = "alt"
	RouterCH    = "ch"
)

// pathFinder is the slice of the routing layer the engine needs; both
// the plain A* Searcher and the ALT-accelerated variant satisfy it.
type pathFinder interface {
	ShortestPath(a, b roadnet.NodeID) roadnet.SPResult
}

// NewEngine builds an engine over a discretization.
func NewEngine(disc *discretize.Discretization, cfg Config) (*Engine, error) {
	if cfg.DefaultDetourLimit < 0 {
		return nil, fmt.Errorf("xar: negative DefaultDetourLimit")
	}
	if cfg.DefaultSeats < 0 {
		return nil, fmt.Errorf("xar: negative DefaultSeats")
	}
	if cfg.ShadowSampleRate < 0 {
		return nil, fmt.Errorf("xar: negative ShadowSampleRate")
	}
	if cfg.ShadowSampleRate > 0 && cfg.Quality == nil {
		return nil, fmt.Errorf("xar: ShadowSampleRate requires Config.Quality")
	}
	if cfg.ProfileInterval < 0 {
		return nil, fmt.Errorf("xar: negative ProfileInterval")
	}
	if cfg.ProfileInterval > 0 && cfg.Profiling == nil {
		return nil, fmt.Errorf("xar: ProfileInterval requires Config.Profiling")
	}
	if cfg.Index.AvgSpeed == 0 {
		cfg.Index = index.DefaultConfig()
	}
	ix, err := index.New(disc, cfg.Index)
	if err != nil {
		return nil, err
	}
	g := disc.City().Graph
	router := cfg.Router
	if router == "" {
		router = RouterALT
		if cfg.CH != nil {
			router = RouterCH
		}
	}
	if router == RouterCH {
		ch := cfg.CH
		if ch == nil {
			built, err := roadnet.BuildCH(g, roadnet.CHConfig{Budget: cfg.CHBudget})
			switch {
			case errors.Is(err, roadnet.ErrCHBudgetExceeded):
				// The documented degradation path: serve with ALT now
				// rather than not at all; Router() exposes the fallback.
				slog.Warn("CH preprocessing budget exceeded; falling back to ALT", "err", err)
				router = RouterALT
			case err != nil:
				return nil, err
			default:
				ch = built
			}
		}
		cfg.CH = ch
	}
	var newFinder func() pathFinder
	var altTables *roadnet.ALT // retained for memory accounting
	switch router {
	case RouterAStar:
		newFinder = func() pathFinder { return roadnet.NewSearcher(g) }
	case RouterALT:
		alt, err := roadnet.NewALT(g, 0) // 0: roadnet's default landmark count (8)
		if err != nil {
			return nil, err
		}
		altTables = alt
		newFinder = func() pathFinder { return alt.NewSearcher() }
	case RouterCH:
		ch := cfg.CH
		newFinder = func() pathFinder { return ch.NewSearcher() }
	default:
		return nil, fmt.Errorf("xar: unknown Router %q (want astar, alt, or ch)", cfg.Router)
	}
	e := &Engine{
		cfg:       cfg,
		disc:      disc,
		ix:        &index.Locked{Ix: ix},
		router:    router,
		newFinder: newFinder,
		jr:        cfg.Journal,
	}
	e.finders.New = func() any { return e.newFinder() }
	e.scratchPool.New = func() any { return newSearchScratch() }
	if cfg.Telemetry != nil || cfg.SlowOpThreshold > 0 || cfg.Tracer != nil {
		e.tel = newEngineTelemetry(cfg.Telemetry, cfg.Tracer, cfg.SearchSampleRate, cfg.SlowOpThreshold, cfg.SlowOpLogger)
	}
	if cfg.Telemetry != nil {
		e.routeQueries = cfg.Telemetry.Counter("xar_route_queries_total",
			"Shortest-path queries served, by routing algorithm.",
			telemetry.L("algo", router))
	}
	if cfg.Telemetry != nil {
		registerIndexGauges(cfg.Telemetry, e.ix.View())
		// Cumulative match rate as a gauge so the flight recorder picks
		// up its history alongside the op-latency series.
		cfg.Telemetry.GaugeFunc("xar_match_rate",
			"Average matches returned per search, cumulative since engine start.",
			nil, func() float64 { return e.Metrics().MatchRate() })
	}
	if cfg.Quality != nil {
		e.quality = cfg.Quality
		if cfg.ShadowSampleRate > 0 {
			e.shadow = newShadowMatcher(e, cfg.Quality, cfg.ShadowSampleRate)
			cfg.Quality.SetShadowEnabled(true)
		}
	}
	if cfg.Memory != nil {
		// Attribution order matters: shared substrates first (the graph
		// is reachable from the ALT tables, the discretization, and the
		// index; the discretization from the index), so each component
		// reports only the bytes it uniquely owns and the shares sum
		// cleanly.
		cfg.Memory.Register("graph", g)
		if altTables != nil {
			cfg.Memory.Register("alt", altTables)
		}
		if cfg.CH != nil {
			cfg.Memory.Register("ch", cfg.CH)
		}
		cfg.Memory.Register("discretization", disc)
		cfg.Memory.Register("index", e.ix.View())
		if cfg.Journal != nil {
			cfg.Memory.Register("journal", cfg.Journal)
		}
		if cfg.Quality != nil {
			cfg.Memory.Register("quality", cfg.Quality)
		}
		e.mem = newMemoryMonitor(cfg.Memory, cfg.Telemetry, e.NumRides, cfg.MemSweepInterval)
		if cfg.MemSweepInterval > 0 {
			e.mem.start()
		}
	}
	if cfg.Profiling != nil {
		e.profiler = cfg.Profiling
		if cfg.Memory != nil {
			cfg.Memory.Register("profiles", cfg.Profiling)
		}
		if cfg.ProfileInterval > 0 {
			e.profiler.Start(cfg.ProfileInterval)
		}
	}
	return e, nil
}

// MemComponents returns the engine's memory-accounting registry (nil
// when Config.Memory was not set). The server uses it to register its
// own components (trace store, flight recorder) alongside the engine's.
func (e *Engine) MemComponents() *memsize.Registry {
	if e.mem == nil {
		return nil
	}
	return e.mem.comps
}

// MemSweep runs one synchronous memory sweep — component walk, heap
// profile, gauge publication — and returns the report. Nil when memory
// accounting is off. Sweeps serialize with the background worker; the
// walk takes per-component locks one component at a time and is safe
// while the engine serves traffic.
func (e *Engine) MemSweep() *MemoryReport {
	if e.mem == nil {
		return nil
	}
	return e.mem.sweepNow()
}

// LastMemReport returns the most recent sweep's report without
// triggering a new sweep (nil when accounting is off or no sweep has
// completed yet).
func (e *Engine) LastMemReport() *MemoryReport {
	if e.mem == nil {
		return nil
	}
	return e.mem.lastReport()
}

// Quality returns the engine's match-quality collector (nil when
// Config.Quality was not set).
func (e *Engine) Quality() *quality.Collector { return e.quality }

// Close stops the engine's background work — the shadow counterfactual
// matcher's worker (after draining its queue) and the memory-accounting
// sweep worker. The engine itself stays fully usable (searches,
// bookings); only the background loops end. Safe to call more than
// once, and a no-op when neither was configured.
func (e *Engine) Close() {
	if e.shadow != nil {
		e.shadow.close()
	}
	if e.mem != nil {
		e.mem.worker.Stop()
	}
	if e.profiler != nil {
		e.profiler.Close()
	}
}

// Profiler returns the engine's continuous profiler (nil when
// Config.Profiling was not set). The server serves its rings at
// /v1/profiles.
func (e *Engine) Profiler() *profile.Profiler {
	return e.profiler
}

// tracedShortestPath runs one pooled shortest-path search under a
// "path_search" span when the context's trace is recording; the span
// carries the endpoints and the resulting distance, so a slow create /
// book / cancel trace shows exactly which A*/ALT call dominated.
// Without a recording trace this is one context lookup plus the search.
func (e *Engine) tracedShortestPath(ctx context.Context, f pathFinder, a, b roadnet.NodeID) roadnet.SPResult {
	_, span := telemetry.ChildSpan(ctx, "path_search")
	res := f.ShortestPath(a, b)
	e.m.shortestPaths.Add(1)
	if e.routeQueries != nil {
		e.routeQueries.Inc()
	}
	if span != nil {
		span.SetInt("from", int64(a))
		span.SetInt("to", int64(b))
		span.SetFloat("dist", res.Dist)
		span.SetStr("algo", e.router)
		if !res.Reachable() {
			span.SetErrorMsg("unreachable")
		}
		span.End()
	}
	return res
}

// Router returns the effective routing algorithm ("astar", "alt", or
// "ch") after auto-selection and any CH-budget fallback.
func (e *Engine) Router() string { return e.router }

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
	if detour < 0 {
		return 0, fmt.Errorf("xar: negative detour limit %v", detour)
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
	res := e.tracedShortestPath(ctx, f, srcNode, dstNode)
	e.release(f)
	if !res.Reachable() {
		return 0, ErrUnreachable
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
	}
	r.RouteETA = e.computeETAs(res.Path, offer.Departure)
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
		"strict_detour":          e.cfg.StrictDetour,
		"router":                 e.router,
		"use_congestion_profile": e.cfg.UseCongestionProfile,
		"search_sample_rate":     sampleRate,
		"slow_op_threshold_ms":   float64(e.cfg.SlowOpThreshold) / float64(time.Millisecond),
		"quality":                e.quality != nil,
		"shadow_sample_rate":     e.cfg.ShadowSampleRate,
		"memory_accounting":      e.mem != nil,
		"mem_sweep_interval_s":   e.cfg.MemSweepInterval.Seconds(),
		"profiling":              e.profiler != nil,
		"profile_interval_s":     e.cfg.ProfileInterval.Seconds(),
		"epsilon_m":              e.disc.Epsilon(),
		"num_clusters":           e.disc.NumClusters(),
		"num_landmarks":          len(e.disc.Landmarks),
		"road_nodes":             e.disc.City().Graph.NumNodes(),
		"active_rides":           e.NumRides(),
	}
}

// computeETAs returns cumulative arrival times along a route starting at
// start: per-edge free-flow travel times, optionally scaled by the
// time-of-day congestion profile at each edge's (estimated) traversal
// time — the "historical travel times" of §VI.
func (e *Engine) computeETAs(route []roadnet.NodeID, start float64) []float64 {
	g := e.disc.City().Graph
	etas := make([]float64, len(route))
	etas[0] = start
	for i := 1; i < len(route); i++ {
		t, err := g.TravelTime(route[i-1 : i+1])
		if err != nil {
			// Route invariant violated; fall back to straight-line time
			// rather than corrupting every downstream ETA.
			t = geo.Haversine(g.Point(route[i-1]), g.Point(route[i])) / 7.0
		}
		if e.cfg.UseCongestionProfile {
			hour := etas[i-1] / 3600 // seconds of day → hour, 24h periodic
			t *= roadnet.SpeedFactor(hour)
		}
		etas[i] = etas[i-1] + t
	}
	return etas
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
