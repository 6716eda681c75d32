package telemetry

import (
	"math"
	"slices"
	"sort"
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
//   - Fixed memory. Retention/interval snapshots live in one Ring; a
//     tick into a full ring reuses the evicted snapshot's vector. No
//     growth, no GC churn proportional to uptime.
//   - Off the hot path. Instruments are read only at tick time (default
//     every 10s); recording a request costs exactly what it cost before
//     the recorder existed.
//   - Wall time. The recorder ticks on its own loop (Start) or on
//     demand (TickNow); TickAt takes the tick's time explicitly, so a
//     test replays hours of ticks in microseconds.
//
// Snapshots store cumulative values (counter totals, histogram bucket
// counts), so any window's rate or quantile is a subtraction between two
// snapshots — the windowed math never loses information to
// pre-aggregation.

// Default recorder cadence and retention: 10-second snapshots kept for
// one hour (360 snapshots). A histogram series costs 2+len(bounds)+1
// float64s per snapshot ≈ 98 KB an hour at the standard 31-bound layout;
// a few dozen series stay comfortably under a few MB.
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

// recSeries is one instrument's place in the snapshots: its cells start
// at off in every snapshot's vector — one cell for a counter or gauge;
// count, sum and len(bounds)+1 cumulative bucket counts for a histogram.
// Counts are stored as float64, exact below 2^53.
type recSeries struct {
	name   string
	labels Labels
	kind   Kind
	off    int
	bounds []float64
}

// recSnap is one tick: its stamp and every series' cumulative values at
// the series' offsets. Series only ever append cells, so a series is in
// exactly the snapshots whose vector reaches its offset — a suffix of
// the ring, however late it was registered.
type recSnap struct {
	unix float64
	vals []float64
}

// Recorder snapshots a Registry's instruments into a ring of snapshots.
// Safe for concurrent Tick/History/FamilyDelta use; ticks serialize.
type Recorder struct {
	reg      *Registry
	interval time.Duration

	mu     sync.RWMutex
	snaps  Ring[recSnap]
	width  int // cells per snapshot: every known series' cells
	series map[seriesKey]*recSeries
	order  []*recSeries

	onTick []func(unix float64)

	worker Worker
}

type seriesKey struct{ name, sig string }

// MeasureMem implements memsize.Measurer: the snapshot ring and the
// series table are walked under the recorder's read lock, so measurement
// is safe against a concurrent tick (ticks take the write lock).
// Nil-receiver-safe.
func (r *Recorder) MeasureMem(a *memsize.Accumulator) {
	if r == nil {
		return
	}
	r.mu.RLock()
	a.Add(r.snaps)
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
	return &Recorder{
		reg:      reg,
		interval: cfg.Interval,
		snaps:    NewRing(make([]recSnap, max(2, int(cfg.Retention/cfg.Interval)))),
		series:   make(map[seriesKey]*recSeries),
	}
}

// Retention returns the configured history span.
func (rec *Recorder) Retention() time.Duration {
	return time.Duration(rec.snaps.Cap()) * rec.interval
}

// OnTick registers fn to run with each snapshot's stamp after the
// snapshot is taken (outside the recorder's lock) — the hook the SLO
// engine evaluates on.
func (rec *Recorder) OnTick(fn func(unix float64)) {
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
// Timestamps must be non-decreasing across ticks; a regressing stamp is
// recorded as given (windowed queries then clamp to zero-width windows).
func (rec *Recorder) TickAt(unix float64) {
	// Refresh scrape-time gauges (runtime stats, shard occupancy) exactly
	// as an exposition render would, so recorded history and live scrapes
	// agree.
	rec.reg.runScrapeHooks()
	fams := rec.reg.snapshotFamilies()

	rec.mu.Lock()
	// A full ring's oldest snapshot is about to be evicted: its vector
	// takes the new values, so memory stays bounded by retention.
	var vals []float64
	if rec.snaps.Len() == rec.snaps.Cap() {
		oldest, _ := rec.snaps.Oldest()
		vals = oldest.vals
	}
	vals = slices.Grow(vals[:0], rec.width)[:rec.width]
	for _, f := range fams {
		for _, s := range f.snapshotSeries() {
			key := seriesKey{name: f.name, sig: s.labels.signature()}
			rs, ok := rec.series[key]
			if !ok {
				rs = &recSeries{name: f.name, labels: s.labels, kind: f.kind, off: rec.width}
				width := 1
				if f.kind == KindHistogram {
					rs.bounds = s.hist.Bounds()
					width = 2 + len(rs.bounds) + 1
				}
				rec.width += width
				vals = append(vals, make([]float64, width)...)
				rec.series[key] = rs
				rec.order = append(rec.order, rs)
			}
			cells := vals[rs.off:]
			switch f.kind {
			case KindCounter:
				cells[0] = float64(s.counter.Value())
			case KindGauge:
				if s.gaugeFn != nil {
					cells[0] = s.gaugeFn()
				} else if s.gauge != nil {
					cells[0] = s.gauge.Value()
				}
			case KindHistogram:
				h := s.hist
				cells[0], cells[1] = float64(h.Count()), h.Sum()
				cum := uint64(0)
				for i, c := range h.BucketCounts() {
					cum += c
					cells[2+i] = float64(cum)
				}
			}
		}
	}
	rec.snaps.Add(recSnap{unix: unix, vals: vals})
	hooks := slices.Clone(rec.onTick)
	rec.mu.Unlock()

	for _, fn := range hooks {
		fn(unix)
	}
}

// firstHolding returns the position in snaps (oldest first) of the
// oldest snapshot holding rs, or len(snaps) when none does.
func firstHolding(snaps []recSnap, rs *recSeries) int {
	return sort.Search(len(snaps), func(i int) bool { return len(snaps[i].vals) > rs.off })
}

// windowDelta is rs's change over the window ending at snapshot p: from
// the newest snapshot at least win seconds older — or, when the window
// reaches back past from (rs's first snapshot), from itself — to p. ok
// is false when p is rs's first snapshot or the pair spans no time.
func windowDelta(rs *recSeries, snaps []recSnap, p, from int, win float64) (d FamilyDelta, ok bool) {
	if p <= from {
		return d, false
	}
	a := p - 1
	for a > from && snaps[p].unix-snaps[a].unix < win {
		a--
	}
	if d.Dt = snaps[p].unix - snaps[a].unix; d.Dt <= 0 {
		return d, false
	}
	cur, old := snaps[p].vals[rs.off:], snaps[a].vals[rs.off:]
	if rs.kind != KindHistogram {
		d.Counter = max(0, cur[0]-old[0])
		return d, true
	}
	d.Count = uint64(cur[0] - old[0])
	d.Counter = float64(d.Count)
	d.Sum = cur[1] - old[1]
	d.Bounds = rs.bounds
	d.Buckets = make([]uint64, len(rs.bounds)+1)
	for i := range d.Buckets {
		d.Buckets[i] = uint64(cur[2+i] - old[2+i])
	}
	return d, true
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
// the debug bundle's history.json.
type HistoryDump struct {
	IntervalSeconds  float64         `json:"interval_seconds"`
	RetentionSeconds float64         `json:"retention_seconds"`
	WindowSeconds    float64         `json:"window_seconds"`
	Snapshots        int             `json:"snapshots"`
	Series           []HistorySeries `json:"series"`
}

// History renders the retained snapshots as windowed series.
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
		Snapshots:        rec.snaps.Len(),
	}
	if rec.snaps.Len() == 0 {
		return dump
	}
	snaps := rec.snaps.AppendTo(make([]recSnap, 0, rec.snaps.Len()))
	latest := snaps[len(snaps)-1].unix

	// firstPoint is the position of the first point the query's Since
	// bound admits.
	firstPoint := 0
	if q.Since > 0 {
		cut := latest - q.Since.Seconds()
		for firstPoint < len(snaps) && snaps[firstPoint].unix < cut {
			firstPoint++
		}
	}
	stride := 1
	if q.MaxPoints > 0 {
		if n := len(snaps) - firstPoint; n > q.MaxPoints {
			stride = (n + q.MaxPoints - 1) / q.MaxPoints
		}
	}

	win := q.Window.Seconds()
	for _, rs := range rec.order {
		if q.Name != "" && rs.name != q.Name {
			continue
		}
		from := firstHolding(snaps, rs)
		if from == len(snaps) {
			continue
		}
		hs := HistorySeries{Name: rs.name, Type: rs.kind.String()}
		if len(rs.labels) > 0 {
			hs.Labels = make(map[string]string, len(rs.labels))
			for _, l := range rs.labels {
				hs.Labels[l.Name] = l.Value
			}
		}
		// Stride from the newest point backwards so the latest snapshot is
		// always included.
		for p := len(snaps) - 1; p >= max(firstPoint, from); p -= stride {
			hs.Points = append(hs.Points, pointAt(rs, snaps, p, from, win))
		}
		slices.Reverse(hs.Points)
		dump.Series = append(dump.Series, hs)
	}
	return dump
}

// pointAt builds the windowed point for snapshot p of rs, which the
// snapshots hold from position from on. Caller holds the read lock.
func pointAt(rs *recSeries, snaps []recSnap, p, from int, win float64) HistoryPoint {
	pt := HistoryPoint{Unix: snaps[p].unix}
	if rs.kind == KindGauge {
		v := snaps[p].vals[rs.off]
		pt.Value = &v
		return pt
	}
	d, ok := windowDelta(rs, snaps, p, from, win)
	if !ok {
		return pt // the series' first point, or a zero-width window
	}
	rate := d.Counter / d.Dt
	pt.Rate = &rate
	if rs.kind == KindHistogram {
		pt.Count = &d.Count
		if d.Count > 0 {
			p50 := quantileFromCumBuckets(d.Bounds, d.Buckets, d.Count, 0.50)
			p95 := quantileFromCumBuckets(d.Bounds, d.Buckets, d.Count, 0.95)
			p99 := quantileFromCumBuckets(d.Bounds, d.Buckets, d.Count, 0.99)
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
	snaps := rec.snaps.AppendTo(make([]recSnap, 0, rec.snaps.Len()))
	var out FamilyDelta
	found := false
	for _, rs := range rec.order {
		if rs.name != name || !labelsContain(rs.labels, match) {
			continue
		}
		d, ok := windowDelta(rs, snaps, len(snaps)-1, firstHolding(snaps, rs), window.Seconds())
		if !ok {
			continue
		}
		found = true
		out.Dt = max(out.Dt, d.Dt)
		out.Counter += d.Counter
		out.Count += d.Count
		out.Sum += d.Sum
		if out.Buckets == nil {
			out.Bounds, out.Buckets = d.Bounds, d.Buckets
		} else if len(out.Buckets) == len(d.Buckets) {
			for i, c := range d.Buckets {
				out.Buckets[i] += c
			}
		}
	}
	return out, found
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
// (le-style) bucket counts whose final cell is +Inf overflow — the one
// interpolation behind Histogram.Quantile and the recorder's windowed
// quantiles.
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
