// Package telemetry is the observability core of the XAR reproduction:
// a stdlib-only, allocation-light metrics library — atomic counters,
// gauges and fixed-bucket latency histograms — behind a registry that
// renders both the Prometheus text exposition format and JSON.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Search is the paper's headline number (§X, Fig 4a);
//     recording an observation must not perturb it. Every instrument is
//     a fixed set of atomic.Uint64 cells — no locks, no maps, no
//     allocation after registration.
//  2. No dependencies. The repo is stdlib-only; the Prometheus client
//     library is out. The exposition format is tiny and stable, so we
//     emit it directly.
//  3. One source of truth. The engine, the HTTP layer, the simulation
//     replay and the benchmark harness all record into the same
//     registry, so figure reproduction and live serving report
//     identical series (see OpDuration / SearchStage).
//
// Instruments are registered once (idempotently) and then shared:
// registering the same (name, labels) pair twice returns the same
// instrument, so independent subsystems can address one series by name.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the exposition type of a metric family.
type Kind int

// Metric family kinds, matching Prometheus TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name="value" pair of a series.
type Label struct {
	Name, Value string
}

// Labels identifies a series within a family. Order is preserved in the
// exposition output.
type Labels []Label

// L builds a Labels list from alternating name, value strings.
// L("op", "search") → {op="search"}.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("telemetry: L needs an even number of arguments")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Name: kv[i], Value: kv[i+1]})
	}
	return ls
}

// signature is the map key identifying a series: labels rendered in
// registration order.
func (ls Labels) signature() string {
	if len(ls) == 0 {
		return ""
	}
	s := ""
	for i, l := range ls {
		if i > 0 {
			s += ","
		}
		s += l.Name + "=" + l.Value
	}
	return s
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; gauges are not hot-path instruments).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one labeled instrument inside a family.
type series struct {
	labels  Labels
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name string
	help string
	kind Kind

	mu     sync.Mutex
	series []*series
	bySig  map[string]*series
}

func (f *family) get(labels Labels) (*series, bool) {
	sig := labels.signature()
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.bySig[sig]; ok {
		return s, true
	}
	s := &series{labels: labels}
	f.bySig[sig] = s
	f.series = append(f.series, s)
	return s, false
}

// snapshotSeries returns a stable copy of the series list for rendering.
func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, len(f.series))
	copy(out, f.series)
	return out
}

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnScrape registers fn to run at the start of every exposition render
// (Prometheus or JSON), before values are read. Use it to refresh gauges
// that are expensive to keep current — e.g. one runtime.ReadMemStats
// feeding several gauges (see RegisterRuntimeMetrics).
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

func (r *Registry) runScrapeHooks() {
	r.mu.Lock()
	hooks := make([]func(), len(r.onScrape))
	copy(hooks, r.onScrape)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// familyFor returns (creating if needed) the family for name, enforcing
// kind consistency. Mixing kinds under one name is a programming error.
func (r *Registry) familyFor(name, help string, kind Kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, bySig: make(map[string]*series)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.families))
	copy(out, r.families)
	return out
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.familyFor(name, help, KindCounter)
	s, existed := f.get(labels)
	if !existed {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	f := r.familyFor(name, help, KindGauge)
	s, existed := f.get(labels)
	if !existed {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	f := r.familyFor(name, help, KindGauge)
	s, _ := f.get(labels)
	f.mu.Lock()
	s.gaugeFn = fn
	f.mu.Unlock()
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use. Later calls ignore bounds
// and return the existing instrument, so callers sharing a series don't
// need to agree on anything but the name.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	f := r.familyFor(name, help, KindHistogram)
	s, existed := f.get(labels)
	if !existed {
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

// --- histogram ---

// Histogram counts observations into fixed buckets with lock-free
// atomic.Uint64 cells. Bounds are upper limits (le); observations above
// the last bound land in the implicit +Inf cell. The sum is kept as
// float64 bits behind a CAS loop, the count as a plain atomic add —
// three atomic ops per Observe, no allocation.
type Histogram struct {
	upper []float64       // sorted upper bounds
	cells []atomic.Uint64 // len(upper)+1; last cell is +Inf overflow
	count atomic.Uint64
	sum   atomic.Uint64 // float64 bits
}

// NewHistogram builds a standalone histogram (use Registry.Histogram for
// registered ones). Bounds must be strictly increasing; nil/empty falls
// back to DurationBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	upper := make([]float64, len(bounds))
	copy(upper, bounds)
	return &Histogram{
		upper: upper,
		cells: make([]atomic.Uint64, len(upper)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search over ~30 sorted bounds: first bound >= v.
	i := sort.SearchFloat64s(h.upper, v)
	h.cells[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, the Prometheus base
// unit for time.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// AddSample records n observations of value v in one shot — the bulk
// path for importing pre-aggregated histograms (runtime/metrics), where
// looping Observe over thousands of buffered samples would be waste.
func (h *Histogram) AddSample(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.cells[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the finite bucket upper limits.
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.upper))
	copy(out, h.upper)
	return out
}

// BucketCounts returns per-bucket (non-cumulative) counts; the last
// entry is the +Inf overflow cell.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.cells))
	for i := range h.cells {
		out[i] = h.cells[i].Load()
	}
	return out
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) by linear
// interpolation inside the bucket containing the target rank — the usual
// fixed-bucket approximation. Returns NaN for an empty histogram; +Inf
// observations in the overflow cell return the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	cum := h.BucketCounts()
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	return quantileFromCumBuckets(h.upper, cum, cum[len(cum)-1], q)
}

// --- bucket layouts ---

// LogBuckets returns log-spaced upper bounds from lo to hi (inclusive)
// with perDecade buckets per factor of 10. Panics on invalid arguments.
func LogBuckets(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		panic("telemetry: LogBuckets needs 0 < lo < hi and perDecade > 0")
	}
	step := math.Pow(10, 1/float64(perDecade))
	var out []float64
	for v := lo; v < hi*(1-1e-12); v *= step {
		out = append(out, v)
	}
	out = append(out, hi)
	return out
}

// DurationBuckets is the standard latency layout used across the repo:
// 10µs to 10s, five buckets per decade (31 bounds). The paper's search
// latencies sit in the 0.01–10 ms range (Fig 4a), bookings in the
// 1–100 ms range — both well inside this span with ~60% resolution.
func DurationBuckets() []float64 {
	return LogBuckets(10e-6, 10, 5)
}
