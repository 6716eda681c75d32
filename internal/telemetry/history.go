package telemetry

import (
	"math"
	"sync"
	"time"

	"xar/internal/memsize"
)

// The flight recorder: a fixed-memory, in-process time-series store that
// snapshots every registered instrument on a cadence and answers
// windowed-rate and rolling-quantile queries over the retained history.
//
// The paper's whole evaluation (Figures 3–6) is about how latency and
// match quality evolve over a simulated day; a point-in-time scrape
// cannot answer "what did search p95 look like over the last half hour"
// without an external Prometheus. The recorder closes that gap with the
// same design constraints as the rest of the package:
//
//   - Fixed memory. Retention/interval slots are allocated once per
//     series; ticking overwrites the oldest slot. No growth, no GC churn
//     proportional to uptime.
//   - Off the hot path. Instruments are read only at tick time (default
//     every 10s); recording a request costs exactly what it cost before
//     the recorder existed.
//   - One clock domain choice per deployment. Live servers tick on wall
//     time (Start); simulation replays tick on simulated time (TickAt),
//     which is how xarsim regenerates the paper's time-of-day figures
//     from recorder output.
//
// Snapshots store cumulative values (counter totals, histogram bucket
// counts), so any window's rate or quantile is a subtraction between two
// slots — the windowed math never loses information to pre-aggregation.

// Default recorder cadence and retention: 10-second snapshots kept for
// one hour (360 slots). A histogram series costs slots×(buckets+1)
// uint64s ≈ 92 KB at the standard 31-bound layout; a few dozen series
// stay comfortably under a few MB.
const (
	DefaultRecorderInterval  = 10 * time.Second
	DefaultRecorderRetention = time.Hour
)

// RecorderConfig sizes a Recorder.
type RecorderConfig struct {
	// Interval between snapshots (0 → DefaultRecorderInterval).
	Interval time.Duration
	// Retention is how much history the ring keeps (0 →
	// DefaultRecorderRetention). Slot count is Retention/Interval.
	Retention time.Duration
}

// recSeries is the retained history of one instrument: parallel rings of
// cumulative values, one slot per tick. Slots older than the series'
// first tick (a series registered mid-flight) are invalid.
type recSeries struct {
	name   string
	labels Labels
	kind   Kind

	firstTick uint64 // global tick number of this series' first snapshot

	vals []float64 // counters: cumulative total; gauges: value

	// Histogram rings: cumulative count/sum plus per-bucket cumulative
	// counts flattened as slot*(len(bounds)+1)+bucket.
	counts  []uint64
	sums    []float64
	bounds  []float64
	buckets []uint64
}

// Recorder snapshots a Registry's instruments into per-series rings.
// Safe for concurrent Tick/History/FamilyDelta use; ticks serialize.
type Recorder struct {
	reg      *Registry
	interval time.Duration
	slots    int

	mu     sync.RWMutex
	times  []float64 // unix seconds per slot
	next   int       // slot the next tick writes
	filled int       // valid slots (≤ slots)
	tick   uint64    // total ticks taken since construction
	series map[seriesKey]*recSeries
	order  []*recSeries

	onTick []func()

	worker Worker
}

type seriesKey struct{ name, sig string }

// MeasureMem implements memsize.Measurer: the time ring, the series
// table, and every series' value rings are walked under the recorder's
// read lock, so measurement is safe against a concurrent tick (ticks
// take the write lock). Nil-receiver-safe.
func (r *Recorder) MeasureMem(a *memsize.Accumulator) {
	if r == nil {
		return
	}
	r.mu.RLock()
	a.Add(r.times)
	a.Add(r.series)
	a.Add(r.order)
	r.mu.RUnlock()
}

// NewRecorder builds a recorder over reg. It takes no snapshot until
// Start or TickAt is called.
func NewRecorder(reg *Registry, cfg RecorderConfig) *Recorder {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultRecorderInterval
	}
	if cfg.Retention <= 0 {
		cfg.Retention = DefaultRecorderRetention
	}
	slots := int(cfg.Retention / cfg.Interval)
	if slots < 2 {
		slots = 2
	}
	return &Recorder{
		reg:      reg,
		interval: cfg.Interval,
		slots:    slots,
		times:    make([]float64, slots),
		series:   make(map[seriesKey]*recSeries),
	}
}

// Interval returns the configured snapshot cadence.
func (rec *Recorder) Interval() time.Duration { return rec.interval }

// Retention returns the configured history span.
func (rec *Recorder) Retention() time.Duration {
	return time.Duration(rec.slots) * rec.interval
}

// OnTick registers fn to run after every snapshot (outside the
// recorder's lock) — the hook the SLO engine evaluates on.
func (rec *Recorder) OnTick(fn func()) {
	rec.mu.Lock()
	rec.onTick = append(rec.onTick, fn)
	rec.mu.Unlock()
}

// Start launches the wall-clock tick worker. Stop ends it.
func (rec *Recorder) Start() {
	rec.worker.Start(rec.interval, func() time.Duration {
		rec.TickNow()
		return rec.interval
	})
}

// Stop terminates the tick worker and waits for it to exit.
// Idempotent; a recorder that was never started stops immediately.
func (rec *Recorder) Stop() { rec.worker.Stop() }

// TickNow takes one snapshot stamped with the current wall clock.
func (rec *Recorder) TickNow() { rec.TickAt(float64(time.Now().UnixNano()) / 1e9) }

// TickAt takes one snapshot stamped with the given unix-seconds instant.
// Simulation replays call this with simulated time, so the recorded
// series carry time-of-day semantics regardless of replay speed.
// Timestamps must be non-decreasing across ticks; a regressing stamp is
// recorded as given (windowed queries then clamp to zero-width windows).
func (rec *Recorder) TickAt(unix float64) {
	// Refresh scrape-time gauges (runtime stats, shard occupancy) exactly
	// as an exposition render would, so recorded history and live scrapes
	// agree.
	rec.reg.runScrapeHooks()
	fams := rec.reg.snapshotFamilies()

	rec.mu.Lock()
	slot := rec.next
	rec.times[slot] = unix
	for _, f := range fams {
		for _, s := range f.snapshotSeries() {
			key := seriesKey{name: f.name, sig: s.labels.signature()}
			rs, ok := rec.series[key]
			if !ok {
				rs = &recSeries{
					name:      f.name,
					labels:    s.labels,
					kind:      f.kind,
					firstTick: rec.tick,
				}
				switch f.kind {
				case KindHistogram:
					rs.bounds = s.hist.Bounds()
					rs.counts = make([]uint64, rec.slots)
					rs.sums = make([]float64, rec.slots)
					rs.buckets = make([]uint64, rec.slots*(len(rs.bounds)+1))
				default:
					rs.vals = make([]float64, rec.slots)
				}
				rec.series[key] = rs
				rec.order = append(rec.order, rs)
			}
			switch f.kind {
			case KindCounter:
				rs.vals[slot] = float64(s.counter.Value())
			case KindGauge:
				if s.gaugeFn != nil {
					rs.vals[slot] = s.gaugeFn()
				} else if s.gauge != nil {
					rs.vals[slot] = s.gauge.Value()
				}
			case KindHistogram:
				h := s.hist
				rs.counts[slot] = h.Count()
				rs.sums[slot] = h.Sum()
				nb := len(rs.bounds) + 1
				cells := h.BucketCounts()
				cum := uint64(0)
				for i := 0; i < nb && i < len(cells); i++ {
					cum += cells[i]
					rs.buckets[slot*nb+i] = cum
				}
			}
		}
	}
	rec.next = (rec.next + 1) % rec.slots
	if rec.filled < rec.slots {
		rec.filled++
	}
	rec.tick++
	hooks := make([]func(), len(rec.onTick))
	copy(hooks, rec.onTick)
	rec.mu.Unlock()

	for _, fn := range hooks {
		fn()
	}
}

// chronSlots returns the valid slot indices oldest→newest. Caller holds
// at least the read lock.
func (rec *Recorder) chronSlots() []int {
	out := make([]int, 0, rec.filled)
	start := 0
	if rec.filled == rec.slots {
		start = rec.next // oldest slot once the ring has wrapped
	}
	for i := 0; i < rec.filled; i++ {
		out = append(out, (start+i)%rec.slots)
	}
	return out
}

// seriesValidFrom returns the chronological position (index into
// chronSlots) of rs's first valid slot, or -1 when none survive.
func (rec *Recorder) seriesValidFrom(rs *recSeries) int {
	oldestTick := rec.tick - uint64(rec.filled)
	if rs.firstTick <= oldestTick {
		return 0
	}
	p := int(rs.firstTick - oldestTick)
	if p >= rec.filled {
		return -1
	}
	return p
}

// --- windowed queries ---

// HistoryQuery selects and shapes a History response.
type HistoryQuery struct {
	// Name filters to one metric family ("" = all).
	Name string
	// Window is the rolling span rates and quantiles are computed over
	// (0 → DefaultHistoryWindow). Each point's value is the delta between
	// that snapshot and the newest snapshot at least Window older (or the
	// series' first snapshot when the window extends past retention).
	Window time.Duration
	// Since limits points to the trailing Since of history (0 = all).
	Since time.Duration
	// MaxPoints caps points per series by striding from the newest
	// backwards (0 = all retained points).
	MaxPoints int
}

// DefaultHistoryWindow is the rolling window used when a query does not
// specify one.
const DefaultHistoryWindow = 5 * time.Minute

// HistoryPoint is one snapshot instant of one series. Counter and
// histogram points carry the per-second rate over the query window;
// histogram points add the window's quantiles; gauge points carry the
// sampled value. Fields are pointers so JSON omits what a kind lacks.
type HistoryPoint struct {
	Unix  float64  `json:"t"`
	Value *float64 `json:"value,omitempty"`
	Rate  *float64 `json:"rate,omitempty"`
	Count *uint64  `json:"count,omitempty"`
	P50   *float64 `json:"p50,omitempty"`
	P95   *float64 `json:"p95,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
}

// HistorySeries is one instrument's windowed history.
type HistorySeries struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Type   string            `json:"type"`
	Points []HistoryPoint    `json:"points"`
}

// HistoryDump is the History result — the /v1/metrics/history body and
// the xarsim/xarbench -history-out file format.
type HistoryDump struct {
	IntervalSeconds  float64         `json:"interval_seconds"`
	RetentionSeconds float64         `json:"retention_seconds"`
	WindowSeconds    float64         `json:"window_seconds"`
	Snapshots        int             `json:"snapshots"`
	Series           []HistorySeries `json:"series"`
}

// History renders the retained rings as windowed series.
func (rec *Recorder) History(q HistoryQuery) HistoryDump {
	if q.Window <= 0 {
		q.Window = DefaultHistoryWindow
	}
	rec.mu.RLock()
	defer rec.mu.RUnlock()

	dump := HistoryDump{
		IntervalSeconds:  rec.interval.Seconds(),
		RetentionSeconds: rec.Retention().Seconds(),
		WindowSeconds:    q.Window.Seconds(),
		Snapshots:        rec.filled,
	}
	if rec.filled == 0 {
		return dump
	}
	chron := rec.chronSlots()
	times := make([]float64, len(chron))
	for p, s := range chron {
		times[p] = rec.times[s]
	}
	latest := times[len(times)-1]

	// firstPoint is the chronological position of the first point the
	// query's Since bound admits.
	firstPoint := 0
	if q.Since > 0 {
		cut := latest - q.Since.Seconds()
		for firstPoint < len(times) && times[firstPoint] < cut {
			firstPoint++
		}
	}
	stride := 1
	if q.MaxPoints > 0 {
		if n := len(times) - firstPoint; n > q.MaxPoints {
			stride = (n + q.MaxPoints - 1) / q.MaxPoints
		}
	}

	win := q.Window.Seconds()
	for _, rs := range rec.order {
		if q.Name != "" && rs.name != q.Name {
			continue
		}
		validFrom := rec.seriesValidFrom(rs)
		if validFrom < 0 {
			continue
		}
		hs := HistorySeries{Name: rs.name, Type: rs.kind.String()}
		if len(rs.labels) > 0 {
			hs.Labels = make(map[string]string, len(rs.labels))
			for _, l := range rs.labels {
				hs.Labels[l.Name] = l.Value
			}
		}
		start := firstPoint
		if validFrom > start {
			start = validFrom
		}
		// Stride from the newest point backwards so the latest snapshot is
		// always included.
		for p := len(chron) - 1; p >= start; p -= stride {
			pt := rec.pointAt(rs, chron, times, p, validFrom, win)
			hs.Points = append(hs.Points, pt)
		}
		// Reverse into chronological order.
		for i, j := 0, len(hs.Points)-1; i < j; i, j = i+1, j-1 {
			hs.Points[i], hs.Points[j] = hs.Points[j], hs.Points[i]
		}
		dump.Series = append(dump.Series, hs)
	}
	return dump
}

// pointAt builds the windowed point for chronological position p: the
// delta between slot p and the newest slot at least win seconds older
// (clamped to the series' first valid slot). Caller holds the read lock.
func (rec *Recorder) pointAt(rs *recSeries, chron []int, times []float64, p, validFrom int, win float64) HistoryPoint {
	pt := HistoryPoint{Unix: times[p]}
	slot := chron[p]
	if rs.kind == KindGauge {
		v := rs.vals[slot]
		pt.Value = &v
		return pt
	}
	// Anchor: newest position ≤ p whose stamp is at least win older.
	anchor := -1
	for a := p - 1; a >= validFrom; a-- {
		if times[p]-times[a] >= win {
			anchor = a
			break
		}
		anchor = a // fall back to the oldest valid slot inside the window
	}
	if anchor < 0 {
		// First point of the series: no delta to compute.
		return pt
	}
	aSlot := chron[anchor]
	dt := times[p] - times[anchor]
	if dt <= 0 {
		return pt
	}
	switch rs.kind {
	case KindCounter:
		d := rs.vals[slot] - rs.vals[aSlot]
		if d < 0 {
			d = 0
		}
		rate := d / dt
		pt.Rate = &rate
	case KindHistogram:
		dc := rs.counts[slot] - rs.counts[aSlot]
		rate := float64(dc) / dt
		pt.Rate = &rate
		pt.Count = &dc
		if dc > 0 {
			nb := len(rs.bounds) + 1
			delta := make([]uint64, nb)
			for i := 0; i < nb; i++ {
				delta[i] = rs.buckets[slot*nb+i] - rs.buckets[aSlot*nb+i]
			}
			p50 := quantileFromCumBuckets(rs.bounds, delta, dc, 0.50)
			p95 := quantileFromCumBuckets(rs.bounds, delta, dc, 0.95)
			p99 := quantileFromCumBuckets(rs.bounds, delta, dc, 0.99)
			pt.P50, pt.P95, pt.P99 = &p50, &p95, &p99
		}
	}
	return pt
}

// FamilyDelta is the summed change of a metric family over a trailing
// window — the SLO engine's raw material.
type FamilyDelta struct {
	// Dt is the actual window span covered (≤ requested when retention or
	// series age clip it).
	Dt float64
	// Counter is the summed counter delta; for histograms it mirrors
	// Count so ratio objectives can reference either kind.
	Counter float64
	// Count/Sum/Buckets are histogram observation deltas; Buckets are
	// cumulative (le-style), aligned with Bounds plus a final +Inf cell.
	Count   uint64
	Sum     float64
	Bounds  []float64
	Buckets []uint64
}

// FamilyDelta sums the trailing-window change across every series of
// family name whose labels contain all of match. ok is false when fewer
// than two snapshots cover the family (no delta computable yet).
func (rec *Recorder) FamilyDelta(name string, match Labels, window time.Duration) (FamilyDelta, bool) {
	rec.mu.RLock()
	defer rec.mu.RUnlock()
	if rec.filled < 2 {
		return FamilyDelta{}, false
	}
	chron := rec.chronSlots()
	times := make([]float64, len(chron))
	for p, s := range chron {
		times[p] = rec.times[s]
	}
	p := len(chron) - 1
	var out FamilyDelta
	found := false
	for _, rs := range rec.order {
		if rs.name != name || !labelsContain(rs.labels, match) {
			continue
		}
		validFrom := rec.seriesValidFrom(rs)
		if validFrom < 0 || validFrom >= p {
			continue
		}
		anchor := validFrom
		for a := p - 1; a >= validFrom; a-- {
			anchor = a
			if times[p]-times[a] >= window.Seconds() {
				break
			}
		}
		slot, aSlot := chron[p], chron[anchor]
		dt := times[p] - times[anchor]
		if dt <= 0 {
			continue
		}
		if dt > out.Dt {
			out.Dt = dt
		}
		found = true
		switch rs.kind {
		case KindCounter, KindGauge:
			d := rs.vals[slot] - rs.vals[aSlot]
			if d < 0 {
				d = 0
			}
			out.Counter += d
		case KindHistogram:
			dc := rs.counts[slot] - rs.counts[aSlot]
			out.Count += dc
			out.Counter += float64(dc)
			out.Sum += rs.sums[slot] - rs.sums[aSlot]
			nb := len(rs.bounds) + 1
			if out.Buckets == nil {
				out.Bounds = rs.bounds
				out.Buckets = make([]uint64, nb)
			}
			if len(out.Buckets) == nb {
				for i := 0; i < nb; i++ {
					out.Buckets[i] += rs.buckets[slot*nb+i] - rs.buckets[aSlot*nb+i]
				}
			}
		}
	}
	return out, found
}

// Quantile estimates the q-quantile of a histogram FamilyDelta by the
// same in-bucket interpolation Histogram.Quantile uses. NaN when the
// window saw no observations.
func (d FamilyDelta) Quantile(q float64) float64 {
	if d.Count == 0 || len(d.Bounds) == 0 {
		return math.NaN()
	}
	return quantileFromCumBuckets(d.Bounds, d.Buckets, d.Count, q)
}

// FractionAbove returns the fraction of the window's observations
// strictly above the bucket bound nearest to threshold (thresholds snap
// to bucket bounds — choose SLO thresholds on the histogram's grid for
// exact accounting). Zero when the window saw no observations.
func (d FamilyDelta) FractionAbove(threshold float64) float64 {
	if d.Count == 0 || len(d.Bounds) == 0 {
		return 0
	}
	i := nearestBoundIndex(d.Bounds, threshold)
	good := d.Buckets[i] // cumulative ≤ bounds[i]
	bad := d.Count - good
	return float64(bad) / float64(d.Count)
}

// nearestBoundIndex returns the index of the bound closest to v (log
// proximity would over-engineer: linear distance picks the same bound
// for any threshold chosen within a bucket's half-width).
func nearestBoundIndex(bounds []float64, v float64) int {
	best, bestDist := 0, math.Inf(1)
	for i, b := range bounds {
		d := math.Abs(b - v)
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// quantileFromCumBuckets interpolates the q-quantile from cumulative
// (le-style) bucket counts whose final cell is +Inf overflow.
func quantileFromCumBuckets(bounds []float64, cum []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	prev := uint64(0)
	for i := range cum {
		c := cum[i]
		if float64(c) >= rank && c > prev {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (rank - float64(prev)) / float64(c-prev)
			return lo + frac*(bounds[i]-lo)
		}
		prev = c
	}
	return bounds[len(bounds)-1]
}

// labelsContain reports whether ls includes every pair of match.
func labelsContain(ls, match Labels) bool {
	for _, m := range match {
		ok := false
		for _, l := range ls {
			if l.Name == m.Name && l.Value == m.Value {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
