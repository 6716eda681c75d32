// Package audit is the online invariant auditor: continuous verification
// that the running engine still delivers what the paper proves. Where
// internal/core/property_test.go checks the Theorem 6 guarantee at test
// time, the auditor re-derives the same invariants from the *live* index
// on a background cadence (or synchronously via Audit), so a correctness
// regression in production surfaces as a counter, a log record and a
// paged health status instead of a silent bad match.
//
// Five invariant families are checked, each its own `invariant` label of
// xar_audit_violations_total:
//
//   - detour_bound: every ride's realized detour stays within the
//     driver's tolerance plus the paper's 4ε additive approximation per
//     accepted booking (Theorem 6's bicriteria bound).
//   - capacity: schedule feasibility — route/ETA arrays consistent, ETAs
//     monotone, via-points in route order, occupancy never exceeds the
//     vehicle's seats at any waypoint, seat accounting exact.
//   - index_consistency: each ride appears in exactly the cluster lists
//     its schedule implies (the search index can only miss or
//     hallucinate matches if this breaks).
//   - causality: journal event sequences are well-formed — no lifecycle
//     event before the ride's created event, no double-terminal.
//   - funnel_accounting: every candidate a search examined was classified
//     into exactly one rejection-funnel stage (internal/quality) — a
//     classification gap means the match-quality telemetry under-reports
//     why searches fail.
//
// The auditor checks a snapshot captured under a single hold of the
// index's read lock and holds no lock while it checks, so it can run at
// any cadence against a loaded engine.
package audit

import (
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// The invariant labels of xar_audit_violations_total.
const (
	InvDetourBound      = "detour_bound"
	InvCapacity         = "capacity"
	InvIndexConsistency = "index_consistency"
	InvCausality        = "causality"
	InvFunnelAccounting = "funnel_accounting"
)

// Invariants returns the fixed label set (counter registration, tests).
func Invariants() []string {
	return []string{InvDetourBound, InvCapacity, InvIndexConsistency, InvCausality, InvFunnelAccounting}
}

// Violation is one confirmed invariant breach.
type Violation struct {
	Invariant string `json:"invariant"`
	Ride      int64  `json:"ride_id,omitempty"`
	Detail    string `json:"detail"`
	// TraceID cross-links the ride's most recent journaled trace, when
	// the journal has one — the span tree of the operation that most
	// recently touched the offending ride.
	TraceID string `json:"trace_id,omitempty"`
}

// Report is the outcome of one sweep.
type Report struct {
	UnixSeconds     float64     `json:"unix"`
	DurationSeconds float64     `json:"duration_seconds"`
	RidesChecked    int         `json:"rides_checked"`
	JournalRides    int         `json:"journal_rides_checked"`
	Violations      []Violation `json:"violations"`
}

// Clean reports whether the sweep found no violations.
func (r Report) Clean() bool { return len(r.Violations) == 0 }

// Target is what the auditor inspects. View is required; Graph enables
// the detour-bound re-derivation; Journal enables the causality sweep
// and trace cross-links.
type Target struct {
	View    index.View
	Graph   *roadnet.Graph
	Epsilon float64
	Journal *journal.Journal
	// Quality enables the funnel_accounting sweep (the engine's quality
	// collector, core.Config.Quality).
	Quality *quality.Collector
}

// Defaults.
const (
	DefaultInterval = 30 * time.Second
	RecentViolators = 10 // violating-ride IDs retained for the debug bundle

	// tolerance is the metric slack for float comparisons, in meters:
	// float64 path-summation error.
	tolerance = 1e-3
)

// Config builds an Auditor.
type Config struct {
	Target Target
	// Interval is the background sweep cadence for Start (0 → 30s).
	Interval time.Duration
	// Registry, when non-nil, registers xar_audit_sweeps_total and
	// xar_audit_violations_total{invariant} (all five labels eagerly, so
	// a clean process still exposes the series at zero).
	Registry *telemetry.Registry
	// Logger receives one structured record per violation (nil →
	// slog.Default()).
	Logger *slog.Logger
	// TraceStore, when non-nil, gets the offending ride's most recent
	// trace forced into its always-keep error ring.
	TraceStore *telemetry.TraceStore
}

// Auditor sweeps the target and accounts violations. Safe for concurrent
// use; Audit may be called while the background sweeper runs.
type Auditor struct {
	t      Target
	ival   time.Duration
	logger *slog.Logger
	store  *telemetry.TraceStore

	sweeps     *telemetry.Counter
	violations map[string]*telemetry.Counter

	worker telemetry.Worker

	mu     sync.Mutex
	last   Report
	total  uint64
	recent []int64 // violating ride IDs, newest first, deduped
}

// New builds an auditor over cfg.Target.
func New(cfg Config) *Auditor {
	a := &Auditor{
		t:      cfg.Target,
		ival:   cfg.Interval,
		logger: cfg.Logger,
		store:  cfg.TraceStore,
	}
	if a.ival <= 0 {
		a.ival = DefaultInterval
	}
	if a.logger == nil {
		a.logger = slog.Default()
	}
	if cfg.Registry != nil {
		a.sweeps = cfg.Registry.Counter("xar_audit_sweeps_total",
			"Completed audit sweeps (background and synchronous).", nil)
		a.violations = make(map[string]*telemetry.Counter, 4)
		for _, inv := range Invariants() {
			a.violations[inv] = cfg.Registry.Counter("xar_audit_violations_total",
				"Invariant violations found by the online auditor, by invariant family.",
				telemetry.L("invariant", inv))
		}
	}
	return a
}

// Interval returns the background sweep cadence.
func (a *Auditor) Interval() time.Duration { return a.ival }

// Audit runs one synchronous sweep over the index plus the journal and
// returns the report. Violations are counted, logged, cross-linked and
// folded into the auditor's cumulative state exactly as background
// sweeps are.
func (a *Auditor) Audit() Report {
	start := time.Now()
	rep := Report{UnixSeconds: float64(start.UnixNano()) / 1e9}
	if v := a.t.View; v != (index.View{}) {
		rides, incs := v.Audit()
		rep.RidesChecked = len(rides)
		for _, r := range rides {
			a.checkRide(r, &rep)
		}
		for _, inc := range incs {
			cl := ""
			if inc.Cluster >= 0 {
				cl = fmt.Sprintf("cluster %d: ", inc.Cluster)
			}
			rep.Violations = append(rep.Violations, Violation{
				Invariant: InvIndexConsistency, Ride: int64(inc.Ride),
				Detail: cl + inc.Detail,
			})
		}
	}
	a.checkCausality(&rep)
	a.checkFunnelAccounting(&rep)
	rep.DurationSeconds = time.Since(start).Seconds()
	a.finish(&rep)
	return rep
}

// checkFunnelAccounting verifies the quality collector's candidate
// accounting: examined == sum of funnel-stage classifications. The
// collector orders its writes stages-first, so under a stable read of
// the examined counter the stage sum can only legitimately run ahead
// (an in-flight search added its stages but not yet its total); a
// *deficit* under a stable read proves a candidate was examined without
// being classified. Concurrent searches make individual reads unstable,
// so the check retries a few times and abstains if the collector never
// quiesces — an online auditor must not flake under load.
func (a *Auditor) checkFunnelAccounting(rep *Report) {
	qc := a.t.Quality
	if qc == nil {
		return
	}
	for attempt := 0; attempt < 4; attempt++ {
		examined, classified, stable := qc.AccountingGap()
		if !stable {
			time.Sleep(time.Millisecond)
			continue
		}
		if classified < examined {
			rep.Violations = append(rep.Violations, Violation{
				Invariant: InvFunnelAccounting,
				Detail: fmt.Sprintf("funnel classified %d of %d examined candidates (gap %d)",
					classified, examined, examined-classified),
			})
		}
		return
	}
}

// checkRide verifies the detour_bound and capacity invariants on one
// ride clone (no locks held).
func (a *Auditor) checkRide(r *index.Ride, rep *Report) {
	add := func(inv, detail string) {
		rep.Violations = append(rep.Violations, Violation{
			Invariant: inv, Ride: int64(r.ID), Detail: detail,
		})
	}

	// Schedule shape: the route and its ETAs must agree before anything
	// else is derivable.
	if len(r.Route) < 2 {
		add(InvCapacity, fmt.Sprintf("route has %d nodes, want ≥ 2", len(r.Route)))
		return
	}
	if len(r.RouteETA) != len(r.Route) {
		add(InvCapacity, fmt.Sprintf("ETA array length %d != route length %d", len(r.RouteETA), len(r.Route)))
		return
	}
	for i := 1; i < len(r.RouteETA); i++ {
		if r.RouteETA[i] < r.RouteETA[i-1]-1e-9 {
			add(InvCapacity, fmt.Sprintf("route ETAs not monotone at index %d (%.3f after %.3f)", i, r.RouteETA[i], r.RouteETA[i-1]))
			break
		}
	}

	// Via-point walk: route order, ETA agreement, occupancy and seat
	// accounting. Occupancy starts at 1 — the driver holds a seat.
	occ, maxOcc, pickups := 1, 1, 0
	lastIdx := -1
	viaOK := true
	for vi, v := range r.Via {
		if v.RouteIdx < 0 || v.RouteIdx >= len(r.Route) {
			add(InvCapacity, fmt.Sprintf("via %d (%s) route index %d out of range [0,%d)", vi, v.Kind, v.RouteIdx, len(r.Route)))
			viaOK = false
			continue
		}
		if v.RouteIdx < lastIdx {
			add(InvCapacity, fmt.Sprintf("via %d (%s) out of route order (index %d after %d)", vi, v.Kind, v.RouteIdx, lastIdx))
			viaOK = false
		}
		lastIdx = v.RouteIdx
		if math.Abs(v.ETA-r.RouteETA[v.RouteIdx]) > 1e-6 {
			add(InvCapacity, fmt.Sprintf("via %d (%s) ETA %.3f disagrees with route ETA %.3f", vi, v.Kind, v.ETA, r.RouteETA[v.RouteIdx]))
		}
		switch v.Kind {
		case index.ViaPickup:
			occ++
			pickups++
			if occ > maxOcc {
				maxOcc = occ
			}
		case index.ViaDropoff:
			occ--
		}
	}
	if maxOcc > r.SeatsTotal {
		add(InvCapacity, fmt.Sprintf("occupancy reaches %d riders but the vehicle seats %d", maxOcc, r.SeatsTotal))
	}
	if viaOK && occ < 1 {
		add(InvCapacity, fmt.Sprintf("drop-off without matching pickup (final occupancy %d)", occ))
	}
	if r.SeatsAvail < 0 || r.SeatsAvail != r.SeatsTotal-1-pickups {
		add(InvCapacity, fmt.Sprintf("seat accounting: %d available != %d total - driver - %d pickups", r.SeatsAvail, r.SeatsTotal, pickups))
	}

	// Detour bound (Theorem 6): realized detour = current route length
	// minus the driver's solo route, bounded by the driver's tolerance
	// plus 4ε per accepted booking.
	if a.t.Graph == nil {
		return
	}
	pathLen, err := a.t.Graph.PathLength(r.Route)
	if err != nil {
		add(InvCapacity, fmt.Sprintf("route not connected: %v", err))
		return
	}
	spent := pathLen - r.BaseRouteLen
	bound := r.DetourLimitInitial + 4*a.t.Epsilon*float64(pickups) + tolerance
	if spent > bound {
		add(InvDetourBound, fmt.Sprintf("realized detour %.1f m exceeds tolerance %.1f m + 4ε×%d bookings = %.1f m",
			spent, r.DetourLimitInitial, pickups, bound))
	}
	// Budget accounting: the charged budget can never exceed the detour
	// actually realized (clamping only ever under-charges).
	if charged := r.DetourLimitInitial - r.DetourLimit; charged > spent+tolerance {
		add(InvDetourBound, fmt.Sprintf("budget accounting: %.1f m charged but only %.1f m of detour realized", charged, spent))
	}
}

// checkCausality replays each ride's journaled event sequence. Rides
// whose rings overwrote an event are exempt from before-created findings
// (the created event may have been legitimately overwritten); a terminal
// event is the last thing a ride records, so double-terminal detection
// survives wraparound.
func (a *Auditor) checkCausality(rep *Report) {
	if a.t.Journal == nil {
		return
	}
	a.t.Journal.PerRide(func(ride int64, evs []journal.Event, wrapped bool) bool {
		rep.JournalRides++
		created := wrapped
		terminals := 0
		flagged := false
		for _, ev := range evs {
			switch ev.Type {
			case journal.Created:
				created = true
			case journal.SearchCandidate, journal.MatchRejected:
				// Advisory and sampled: candidate/rejection events race
				// the ride's own lifecycle by design, so they prove
				// nothing about it.
			case journal.Completed:
				terminals++
				if terminals == 2 {
					rep.Violations = append(rep.Violations, Violation{
						Invariant: InvCausality, Ride: ride, TraceID: ev.TraceID,
						Detail: "double-terminal: more than one completed event",
					})
				}
				fallthrough
			default:
				if !created && !flagged {
					flagged = true
					rep.Violations = append(rep.Violations, Violation{
						Invariant: InvCausality, Ride: ride, TraceID: ev.TraceID,
						Detail: fmt.Sprintf("%s event before created", ev.Type),
					})
				}
			}
		}
		return true
	})
}

// finish accounts a completed sweep: counters, structured logs, trace
// cross-links, the recent-violators ring and the last-report slot.
func (a *Auditor) finish(rep *Report) {
	if a.sweeps != nil {
		a.sweeps.Inc()
	}
	for i := range rep.Violations {
		vio := &rep.Violations[i]
		if vio.TraceID == "" && vio.Ride != 0 {
			vio.TraceID = a.t.Journal.LastTraceID(vio.Ride)
		}
		if c := a.violations[vio.Invariant]; c != nil {
			c.Inc()
		}
		a.logger.Error("audit: invariant violation",
			"invariant", vio.Invariant, "ride", vio.Ride,
			"detail", vio.Detail, "trace_id", vio.TraceID)
		if a.store != nil && vio.TraceID != "" {
			if id, ok := telemetry.ParseTraceID(vio.TraceID); ok {
				a.store.ForceError(id)
			}
		}
	}
	a.mu.Lock()
	a.last = *rep
	a.total += uint64(len(rep.Violations))
	for i := len(rep.Violations) - 1; i >= 0; i-- { // newest-first ordering
		id := rep.Violations[i].Ride
		if id == 0 {
			continue
		}
		dup := false
		for _, have := range a.recent {
			if have == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		a.recent = append([]int64{id}, a.recent...)
		if len(a.recent) > RecentViolators {
			a.recent = a.recent[:RecentViolators]
		}
	}
	a.mu.Unlock()
}

// Start launches the background sweeper at the configured interval.
// Idempotent while running.
func (a *Auditor) Start() {
	a.worker.Start(a.ival, func() time.Duration {
		a.Audit()
		return a.ival
	})
}

// Stop halts the background sweeper and waits for it to exit. Final: a
// stopped auditor does not start again. No-op when not running.
func (a *Auditor) Stop() { a.worker.Stop() }

// LastReport returns a copy of the most recent sweep's report.
func (a *Auditor) LastReport() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := a.last
	rep.Violations = append([]Violation(nil), rep.Violations...)
	return rep
}

// TotalViolations returns the cumulative violation count across sweeps.
func (a *Auditor) TotalViolations() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// RecentViolatingRides returns the ≤10 most recent distinct violating
// ride IDs, newest first — the debug bundle pulls these rides' journal
// timelines.
func (a *Auditor) RecentViolatingRides() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int64(nil), a.recent...)
}

// Health is the audit block of /v1/healthz.
type Health struct {
	TotalViolations  uint64  `json:"total_violations"`
	LastSweepUnix    float64 `json:"last_sweep_unix"`
	LastRidesChecked int     `json:"last_rides_checked"`
	LastViolations   int     `json:"last_violations"`
}

// Health summarizes the auditor's state for the health endpoint.
func (a *Auditor) Health() Health {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Health{
		TotalViolations:  a.total,
		LastSweepUnix:    a.last.UnixSeconds,
		LastRidesChecked: a.last.RidesChecked,
		LastViolations:   len(a.last.Violations),
	}
}
