// Package quality collects match-quality telemetry: the candidate
// rejection funnel of the two-step search (§VII), approximation-gap
// histograms against the Theorem 6 detour bound, and the shadow
// counterfactual matcher's constraint-attribution and greedy-regret
// statistics. The package is deliberately engine-free — internal/core
// feeds a Collector, internal/server and the cmd tools read snapshots —
// so the dependency arrow points one way and the collector can be unit
// tested without a world.
//
// Everything is fixed-memory and lock-free on the paths the engine
// touches: funnel accounting is a handful of atomic adds per search
// (batched per search, not per candidate), and the histograms are the
// same atomic-bucket telemetry.Histogram the op timers use. The shadow
// matcher's lower-rate statistics (regret mean/max) sit behind a mutex.
package quality

import (
	"sync"
	"sync/atomic"

	"xar/internal/memsize"
	"xar/internal/telemetry"
)

// Funnel stage indices. Every candidate ride a search examines (the
// source-side survivors of step 1) is classified into exactly one stage:
// the first filter that eliminated it, or Matched. The order mirrors the
// filter chain in internal/core/search.go.
const (
	// WindowMiss: in the source departure window but not the extended
	// destination window (step 2 intersection), or the posting was stale.
	WindowMiss = iota
	// WalkLimit: no (source, dest) cluster pair fits the requester's
	// combined walking limit (the two sides' least-walk clusters that
	// list the ride in-window already exceed it).
	WalkLimit
	// DetourBound: an order-feasible support pair exists, but every one
	// exceeds the ride's remaining detour budget.
	DetourBound
	// OrderInfeasible: no support pair visits the pickup cluster before
	// the drop-off cluster (wrong direction / vehicle already past).
	OrderInfeasible
	// Matched: the candidate survived every filter.
	Matched

	// NumStages sizes per-search funnel count arrays.
	NumStages
)

var stageNames = [NumStages]string{
	WindowMiss:      "window_miss",
	WalkLimit:       "walk_limit",
	DetourBound:     "detour_bound",
	OrderInfeasible: "order_infeasible",
	Matched:         "matched",
}

// StageName returns the label value of a funnel stage index
// (xar_search_funnel_total{stage=...}); "" for out-of-range.
func StageName(i int) string {
	if i < 0 || i >= NumStages {
		return ""
	}
	return stageNames[i]
}

// Stages returns all funnel stage names in classification order.
func Stages() []string { return append([]string(nil), stageNames[:]...) }

// Shadow-matcher constraint labels (xar_shadow_unlock_total{constraint}):
// for a sampled no-match request, each single-constraint relaxation that
// produces at least one match counts an unlock of that constraint.
// ConstraintNone counts requests no single relaxation unlocked (multiple
// binding constraints, or genuinely unservable corridors).
const (
	ConstraintWalk   = "walk_limit"
	ConstraintWindow = "window"
	ConstraintDetour = "detour_bound"
	ConstraintOrder  = "order_infeasible"
	ConstraintNone   = "none"
)

var constraintNames = []string{
	ConstraintWalk, ConstraintWindow, ConstraintDetour, ConstraintOrder, ConstraintNone,
}

// Constraints returns every unlock label the shadow matcher can emit.
func Constraints() []string { return append([]string(nil), constraintNames...) }

// Shadow task kinds (xar_shadow_tasks_total{kind}).
const (
	TaskNoMatch = "no_match"
	TaskRegret  = "regret"
)

// RatioBuckets are the histogram bounds for the dimensionless ratio
// series (xar_detour_slack_ratio, xar_epsilon_consumption_ratio): dense
// around the interesting [0, 1] consumption range with a short tail past
// 1 to catch bound violations (which the auditor would also flag).
func RatioBuckets() []float64 {
	return []float64{0.01, 0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4,
		0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2}
}

// Collector accumulates match-quality statistics and mirrors them into a
// telemetry registry. Safe for concurrent use; a nil *Collector is a
// valid no-op for every method.
type Collector struct {
	// funnel/examined: the atomic twins of the Prometheus counters, read
	// by Snapshot and the auditor without a scrape. AddFunnel orders the
	// writes stages-first, examined-last, so a stable read of examined
	// can never exceed the stage sum (see AccountingGap).
	funnel   [NumStages]atomic.Uint64
	examined atomic.Uint64

	funnelCounters [NumStages]*telemetry.Counter
	slack          *telemetry.Histogram
	epsConsumption *telemetry.Histogram

	unlocks        []atomic.Uint64
	unlockCounters []*telemetry.Counter
	unlockIdx      map[string]int

	taskNoMatch   *telemetry.Counter
	taskRegret    *telemetry.Counter
	droppedTasks  *telemetry.Counter
	shadowEnabled atomic.Bool

	// Regret statistics are low-rate (one update per sampled booking,
	// off the request path), so a mutex beats float-CAS contortions.
	mu            sync.Mutex
	regretTasks   uint64
	regretHits    uint64 // tasks where a strictly better alternative existed
	regretSum     float64
	regretMax     float64
	regretChecked uint64 // tasks where the shadow re-search found any match
}

// MeasureMem implements memsize.Measurer with a bare lock-free walk:
// every Collector pointer, slice, and map field is immutable after New
// (the walker follows structure, not the atomically-mutated scalar
// values), so no lock is needed. Nil-receiver-safe.
func (c *Collector) MeasureMem(a *memsize.Accumulator) {
	if c == nil {
		return
	}
	a.Add(c)
}

// New builds a Collector registered into reg. A nil reg records into a
// private, unexposed registry — identical cost, nothing scraped — so
// callers that only want Snapshot need no registry plumbing.
func New(reg *telemetry.Registry) *Collector {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Collector{
		unlocks:   make([]atomic.Uint64, len(constraintNames)),
		unlockIdx: make(map[string]int, len(constraintNames)),
	}
	// Eager registration: a fresh process exposes every funnel stage and
	// unlock constraint at zero, the same contract as the journal's
	// per-type event counters.
	for i := 0; i < NumStages; i++ {
		c.funnelCounters[i] = reg.Counter("xar_search_funnel_total",
			"Candidate rides examined by search, by the funnel stage that eliminated them (or matched).",
			telemetry.L("stage", stageNames[i]))
	}
	c.slack = reg.Histogram("xar_detour_slack_ratio",
		"Realized booking detour as a fraction of the Theorem 6 limit (remaining budget + 4ε).",
		RatioBuckets(), nil)
	c.epsConsumption = reg.Histogram("xar_epsilon_consumption_ratio",
		"Per-pickup approximation error (actual − estimated detour) as a fraction of the 4ε allowance.",
		RatioBuckets(), nil)
	for i, name := range constraintNames {
		c.unlockIdx[name] = i
		c.unlockCounters = append(c.unlockCounters, reg.Counter("xar_shadow_unlock_total",
			"Sampled no-match requests the shadow matcher unlocked by relaxing one constraint.",
			telemetry.L("constraint", name)))
	}
	c.taskNoMatch = reg.Counter("xar_shadow_tasks_total",
		"Shadow counterfactual tasks processed, by kind.", telemetry.L("kind", TaskNoMatch))
	c.taskRegret = reg.Counter("xar_shadow_tasks_total",
		"Shadow counterfactual tasks processed, by kind.", telemetry.L("kind", TaskRegret))
	c.droppedTasks = reg.Counter("xar_shadow_dropped_total",
		"Shadow tasks dropped because the bounded queue was full (the request path never blocks).", nil)
	return c
}

// AddFunnel folds one search's per-stage candidate counts in: stage
// counters first, the examined total last (the ordering AccountingGap
// relies on). examined is counted *independently* by the caller (the
// engine uses the candidate-set size, not the stage sum), which is what
// makes the auditor's funnel_accounting invariant a genuine cross-check
// of the classification logic rather than a tautology. Nil-safe; zero
// stages cost nothing.
func (c *Collector) AddFunnel(counts *[NumStages]uint64, examined uint64) {
	if c == nil {
		return
	}
	for i, n := range counts {
		if n == 0 {
			continue
		}
		c.funnel[i].Add(n)
		c.funnelCounters[i].Add(n)
	}
	if examined > 0 {
		c.examined.Add(examined)
	}
}

// FunnelTotal returns the cumulative count of one stage. Nil-safe.
func (c *Collector) FunnelTotal(stage int) uint64 {
	if c == nil || stage < 0 || stage >= NumStages {
		return 0
	}
	return c.funnel[stage].Load()
}

// Examined returns the cumulative candidates examined (the funnel's
// stage sum, maintained as its own atomic). Nil-safe.
func (c *Collector) Examined() uint64 {
	if c == nil {
		return 0
	}
	return c.examined.Load()
}

// AccountingGap supports the auditor's funnel_accounting invariant: it
// reads examined, sums the stage counters, and re-reads examined. When
// the two examined reads agree (stable=true) the stage sum can only be
// ≥ examined — AddFunnel writes stages before examined — so classified <
// examined under a stable read proves a candidate was examined but never
// classified. Unstable reads mean searches were in flight; retry.
func (c *Collector) AccountingGap() (examined, classified uint64, stable bool) {
	if c == nil {
		return 0, 0, true
	}
	e1 := c.examined.Load()
	var sum uint64
	for i := range c.funnel {
		sum += c.funnel[i].Load()
	}
	e2 := c.examined.Load()
	return e1, sum, e1 == e2
}

// ObserveSlack records one booking's realized detour as a fraction of
// its Theorem 6 limit. Nil-safe.
func (c *Collector) ObserveSlack(ratio float64) {
	if c == nil {
		return
	}
	c.slack.Observe(ratio)
}

// ObserveEpsilonConsumption records one booking's approximation error as
// a fraction of the 4ε allowance. Nil-safe.
func (c *Collector) ObserveEpsilonConsumption(ratio float64) {
	if c == nil {
		return
	}
	c.epsConsumption.Observe(ratio)
}

// SetShadowEnabled records whether a shadow matcher feeds this
// collector (surfaced in snapshots so /v1/quality distinguishes "zero
// because disabled" from "zero because nothing unlocked"). Nil-safe.
func (c *Collector) SetShadowEnabled(on bool) {
	if c == nil {
		return
	}
	c.shadowEnabled.Store(on)
}

// Unlock counts one constraint unlock from a shadowed no-match request.
// Unknown constraint names are ignored. Nil-safe.
func (c *Collector) Unlock(constraint string) {
	if c == nil {
		return
	}
	i, ok := c.unlockIdx[constraint]
	if !ok {
		return
	}
	c.unlocks[i].Add(1)
	c.unlockCounters[i].Inc()
}

// UnlockTotal returns the cumulative unlocks of one constraint. Nil-safe.
func (c *Collector) UnlockTotal(constraint string) uint64 {
	if c == nil {
		return 0
	}
	i, ok := c.unlockIdx[constraint]
	if !ok {
		return 0
	}
	return c.unlocks[i].Load()
}

// ShadowTask counts one processed shadow task by kind. Nil-safe.
func (c *Collector) ShadowTask(kind string) {
	if c == nil {
		return
	}
	switch kind {
	case TaskNoMatch:
		c.taskNoMatch.Inc()
	case TaskRegret:
		c.taskRegret.Inc()
	}
}

// ShadowDropped counts one shadow task dropped at the full queue. Nil-safe.
func (c *Collector) ShadowDropped() {
	if c == nil {
		return
	}
	c.droppedTasks.Inc()
}

// ObserveRegret records one booked request's greedy regret: the booked
// match's total walk minus the best alternative's, in meters (clamped at
// zero by the caller), with found reporting whether the shadow re-search
// produced any candidate at all. Nil-safe.
func (c *Collector) ObserveRegret(meters float64, found bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.regretTasks++
	if found {
		c.regretChecked++
		if meters > 0 {
			c.regretHits++
			c.regretSum += meters
			if meters > c.regretMax {
				c.regretMax = meters
			}
		}
	}
	c.mu.Unlock()
}

// HistogramSummary is the JSON shape of one ratio histogram in a
// quality snapshot.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func summarize(h *telemetry.Histogram) HistogramSummary {
	s := HistogramSummary{Count: h.Count()}
	if s.Count == 0 {
		return s
	}
	s.Mean = h.Sum() / float64(s.Count)
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	return s
}

// RegretStats summarizes the shadow matcher's greedy-regret measurements.
type RegretStats struct {
	// Bookings is the number of sampled bookings re-evaluated.
	Bookings uint64 `json:"bookings"`
	// Rematched is how many of those re-searches found any candidate
	// (the counterfactual runs after the booking mutated the ride, so
	// some find nothing).
	Rematched uint64 `json:"rematched"`
	// WithRegret is how many found a strictly better alternative.
	WithRegret uint64 `json:"with_regret"`
	// MeanM/MaxM summarize the regret in meters over WithRegret tasks.
	MeanM float64 `json:"mean_m"`
	MaxM  float64 `json:"max_m"`
}

// ShadowSnapshot is the shadow-matcher section of a quality snapshot.
type ShadowSnapshot struct {
	Enabled bool              `json:"enabled"`
	Tasks   map[string]uint64 `json:"tasks"`
	Dropped uint64            `json:"dropped"`
	Unlocks map[string]uint64 `json:"unlocks"`
	Regret  RegretStats       `json:"regret"`
}

// Snapshot is the full quality picture: the GET /v1/quality body and the
// quality.json debug-bundle section.
type Snapshot struct {
	// Funnel maps stage name → cumulative candidates, CandidatesExamined
	// their sum (every examined candidate classified exactly once).
	Funnel             map[string]uint64 `json:"funnel"`
	CandidatesExamined uint64            `json:"candidates_examined"`
	// DetourSlack summarizes xar_detour_slack_ratio, EpsilonConsumption
	// xar_epsilon_consumption_ratio.
	DetourSlack        HistogramSummary `json:"detour_slack_ratio"`
	EpsilonConsumption HistogramSummary `json:"epsilon_consumption_ratio"`
	Shadow             ShadowSnapshot   `json:"shadow"`
}

// Snapshot returns a point-in-time copy of everything the collector
// holds. Nil-safe (returns a zero snapshot with non-nil maps).
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Funnel: make(map[string]uint64, NumStages),
		Shadow: ShadowSnapshot{
			Tasks:   make(map[string]uint64, 2),
			Unlocks: make(map[string]uint64, len(constraintNames)),
		},
	}
	if c == nil {
		return s
	}
	for i := 0; i < NumStages; i++ {
		s.Funnel[stageNames[i]] = c.funnel[i].Load()
	}
	s.CandidatesExamined = c.examined.Load()
	s.DetourSlack = summarize(c.slack)
	s.EpsilonConsumption = summarize(c.epsConsumption)
	s.Shadow.Enabled = c.shadowEnabled.Load()
	s.Shadow.Tasks[TaskNoMatch] = c.taskNoMatch.Value()
	s.Shadow.Tasks[TaskRegret] = c.taskRegret.Value()
	s.Shadow.Dropped = c.droppedTasks.Value()
	for i, name := range constraintNames {
		s.Shadow.Unlocks[name] = c.unlocks[i].Load()
	}
	c.mu.Lock()
	s.Shadow.Regret = RegretStats{
		Bookings:   c.regretTasks,
		Rematched:  c.regretChecked,
		WithRegret: c.regretHits,
		MaxM:       c.regretMax,
	}
	if c.regretHits > 0 {
		s.Shadow.Regret.MeanM = c.regretSum / float64(c.regretHits)
	}
	c.mu.Unlock()
	return s
}
