package telemetry

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// SLO engine: declarative objectives evaluated against the flight
// recorder with multi-window burn rates (the Google SRE workbook
// "multiwindow, multi-burn-rate alert" shape, reduced to two windows).
//
// Every objective is normalized to ratio form: a window is summarized as
// badFraction = bad/total, and burn = badFraction/budget, where budget
// is the allowed bad fraction (1−0.95 for "p95 under threshold",
// or an explicit error budget for ratio objectives). burn = 1 means
// exactly consuming budget; burn = 10 means consuming it 10× too fast.
//
// State rules, evaluated every recorder tick:
//
//	page: shortBurn ≥ pageBurn AND longBurn ≥ 1   (fast, confirmed burn)
//	warn: shortBurn ≥ warnBurn OR  longBurn ≥ 1   (elevated or slow burn)
//	ok:   otherwise
//
// The long-window guard on page keeps a single spiky short window from
// paging; the long-window OR on warn catches slow steady burns that
// never trip the short window.

// SLOState is an objective's evaluated health.
type SLOState int

// States, ordered by severity so WorstState can max over them.
const (
	SLOOk SLOState = iota
	SLOWarn
	SLOPage
)

func (s SLOState) String() string {
	switch s {
	case SLOOk:
		return "ok"
	case SLOWarn:
		return "warn"
	case SLOPage:
		return "page"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the state as its string form.
func (s SLOState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the string form back (clients of /v1/slo).
func (s *SLOState) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"ok"`:
		*s = SLOOk
	case `"warn"`:
		*s = SLOWarn
	case `"page"`:
		*s = SLOPage
	default:
		return fmt.Errorf("telemetry: unknown SLO state %s", b)
	}
	return nil
}

// Objective is one declarative service-level objective. Build with
// LatencyObjective or RatioObjective.
type Objective struct {
	// Name identifies the objective in /v1/slo output.
	Name string
	// Description is human-readable intent ("search p95 < 5ms").
	Description string

	// Budget is the allowed bad fraction of observations (0 < Budget < 1).
	Budget float64

	// badFraction returns bad/total over the window ending now, and the
	// window's total observation count (0 → no data, skip evaluation).
	badFraction func(rec *Recorder, window time.Duration) (frac float64, total float64)
}

// LatencyObjective declares "the q-quantile of histogram family metric
// (series matching match) stays under threshold seconds". Budget is
// 1−q: for q=0.95 at most 5% of observations may exceed the threshold.
// The threshold is snapped to the nearest histogram bucket bound, so
// pick thresholds on the bucket grid (DurationBuckets: 5/decade) for
// exact accounting. A threshold that is not positive and finite has no
// bound to snap to (0, a negative value or NaN would snap to the first
// and page forever), so it panics like a quantile outside (0,1).
func LatencyObjective(name, metric string, match Labels, threshold float64, q float64) Objective {
	if q <= 0 || q >= 1 {
		panic("telemetry: LatencyObjective quantile must be in (0,1)")
	}
	if !(threshold > 0 && threshold < math.Inf(1)) {
		panic("telemetry: LatencyObjective threshold must be positive and finite")
	}
	return Objective{
		Name:        name,
		Description: fmt.Sprintf("%s p%g < %s", metric, q*100, time.Duration(threshold*float64(time.Second))),
		Budget:      1 - q,
		badFraction: func(rec *Recorder, window time.Duration) (float64, float64) {
			d, ok := rec.FamilyDelta(metric, match, window)
			if !ok || d.Count == 0 {
				return 0, 0
			}
			return d.FractionAbove(threshold), float64(d.Count)
		},
	}
}

// RatioObjective declares "counter family bad (series matching
// badMatch) stays under budget as a fraction of counter family total
// (series matching totalMatch)". Histogram families count observations.
func RatioObjective(name, description, bad string, badMatch Labels, total string, totalMatch Labels, budget float64) Objective {
	if budget <= 0 || budget >= 1 {
		panic("telemetry: RatioObjective budget must be in (0,1)")
	}
	return Objective{
		Name:        name,
		Description: description,
		Budget:      budget,
		badFraction: func(rec *Recorder, window time.Duration) (float64, float64) {
			b, okB := rec.FamilyDelta(bad, badMatch, window)
			t, okT := rec.FamilyDelta(total, totalMatch, window)
			if !okT || t.Counter <= 0 {
				return 0, 0
			}
			f := 0.0
			if okB {
				f = b.Counter / t.Counter
			}
			if f > 1 {
				f = 1
			}
			return f, t.Counter
		},
	}
}

// Short-window burn rates of the state rules above: warnBurn yields
// warn; pageBurn, confirmed by the long window, yields page.
const (
	warnBurn = 2
	pageBurn = 10
)

// The two evaluation windows: fast burns show in the short one, slow
// steady burns in the long one.
const (
	sloShortWindow = 5 * time.Minute
	sloLongWindow  = 30 * time.Minute
)

// SLOStatus is one objective's latest evaluation — the /v1/slo element.
type SLOStatus struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	State       SLOState `json:"state"`
	Budget      float64  `json:"budget"`
	// BurnShort/BurnLong are badFraction/Budget over each window; 1.0
	// means consuming budget exactly at the sustainable rate.
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	// BadFractionShort is the raw short-window bad fraction.
	BadFractionShort float64 `json:"bad_fraction_short"`
	// SamplesShort is the short window's total observation count; 0 means
	// the objective had no data and reports ok by default.
	SamplesShort float64 `json:"samples_short"`
	// SinceUnix is when the objective entered its current state.
	SinceUnix float64 `json:"since_unix"`
}

// SLOEngine evaluates objectives against a Recorder on every tick.
type SLOEngine struct {
	rec  *Recorder
	objs []Objective

	mu     sync.Mutex
	states []SLOStatus
	onPage []func(SLOStatus)
}

// NewSLOEngine builds an engine over rec and hooks it to the recorder's
// tick, so states stay current without a separate evaluation loop.
func NewSLOEngine(rec *Recorder, objs ...Objective) *SLOEngine {
	e := &SLOEngine{rec: rec, objs: objs}
	e.states = make([]SLOStatus, len(objs))
	for i, o := range objs {
		e.states[i] = SLOStatus{Name: o.Name, Description: o.Description, Budget: o.Budget, State: SLOOk}
	}
	rec.OnTick(e.evaluate)
	return e
}

// OnPage registers fn to run (synchronously, on the tick goroutine)
// whenever an objective transitions into SLOPage — the hook the
// continuous profiler pins its capture bracket from.
func (e *SLOEngine) OnPage(fn func(SLOStatus)) {
	e.mu.Lock()
	e.onPage = append(e.onPage, fn)
	e.mu.Unlock()
}

// evaluate recomputes every objective's state from recorder history as
// of the snapshot stamped now.
func (e *SLOEngine) evaluate(now float64) {
	type fired struct {
		fns []func(SLOStatus)
		st  SLOStatus
	}
	var pages []fired

	e.mu.Lock()
	for i, o := range e.objs {
		fShort, nShort := o.badFraction(e.rec, sloShortWindow)
		fLong, _ := o.badFraction(e.rec, sloLongWindow)
		burnShort := fShort / o.Budget
		burnLong := fLong / o.Budget

		st := SLOOk
		switch {
		case nShort <= 0:
			st = SLOOk // no data: assume healthy rather than flapping
		case burnShort >= pageBurn && burnLong >= 1:
			st = SLOPage
		case burnShort >= warnBurn || burnLong >= 1:
			st = SLOWarn
		}

		prev := e.states[i]
		cur := SLOStatus{
			Name:             o.Name,
			Description:      o.Description,
			Budget:           o.Budget,
			State:            st,
			BurnShort:        round3(burnShort),
			BurnLong:         round3(burnLong),
			BadFractionShort: round6(fShort),
			SamplesShort:     nShort,
			SinceUnix:        prev.SinceUnix,
		}
		if st != prev.State {
			cur.SinceUnix = now
			if st == SLOPage && len(e.onPage) > 0 {
				fns := make([]func(SLOStatus), len(e.onPage))
				copy(fns, e.onPage)
				pages = append(pages, fired{fns: fns, st: cur})
			}
		}
		e.states[i] = cur
	}
	e.mu.Unlock()

	for _, p := range pages {
		for _, fn := range p.fns {
			fn(p.st)
		}
	}
}

// Statuses returns the latest evaluation of every objective.
func (e *SLOEngine) Statuses() []SLOStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, len(e.states))
	copy(out, e.states)
	return out
}

// WorstState returns the most severe state across objectives — what
// /healthz folds into its status field.
func (e *SLOEngine) WorstState() SLOState {
	e.mu.Lock()
	defer e.mu.Unlock()
	worst := SLOOk
	for _, s := range e.states {
		if s.State > worst {
			worst = s.State
		}
	}
	return worst
}

func round3(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Round(v*1e3) / 1e3
}

func round6(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Round(v*1e6) / 1e6
}
