// Package profile implements always-on continuous profiling for the
// engine: a background worker that periodically captures delta
// profiles — a short duty-cycled CPU window, heap in-use and
// allocation deltas, mutex and block contention deltas, and goroutine
// counts by state — folds each capture into per-function /
// per-package flat tables, and stores them in fixed-memory
// overwrite-oldest rings (a fine ring of every capture and a coarse
// one-per-hour ring, mirroring telemetry.Recorder's two resolutions,
// plus an always-keep ring of captures pinned by SLO page
// transitions).
//
// The worker is a telemetry.Worker under the same duty-cycle discipline
// as the memory sweeper (telemetry.Throttle): after a capture whose
// active work took d, the next one is at least 99×d away, bounding fold
// cost to ≤1% of one core. The passive CPU sampling window (the
// profiler sleeping while the runtime samples) is deliberately excluded
// from d — it costs samples, not a core — so the default 60s cadence
// holds with a 1s window; it instead carries its own 9× floor bounding
// SIGPROF exposure to ≤10% of wall time however short the interval. The
// overhead gauge the profiler publishes (xar_profile_overhead_ratio)
// tracks the active-work definition only.
package profile

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"xar/internal/memsize"
	"xar/internal/telemetry"
)

const (
	// DefaultInterval between captures (xarserver -profile-interval).
	DefaultInterval = 60 * time.Second
	// DefaultCPUWindow is the CPU sampling window inside each capture.
	DefaultCPUWindow = time.Second

	defaultFineSlots   = 64
	defaultCoarseSlots = 48
	defaultPinnedSlots = 16

	// coarseEvery is the coarse ring's cadence.
	coarseEvery = time.Hour
	// topN truncates each folded flat table.
	topN = 64
	// maxRawBytes caps each stored raw pprof blob; larger blobs keep
	// their fold but drop the raw export.
	maxRawBytes = 1 << 20

	// mutexFraction samples 1-in-N mutex contention events;
	// blockRateNs samples blocking events longer than ~100µs. Both are
	// set once when the profiler is built (runtime globals).
	mutexFraction = 64
	blockRateNs   = 100_000

	// windowDutyCycle bounds the passive CPU sampling window to ≤10%
	// of wall time: SIGPROF delivery is cheap but not free, so an
	// aggressive interval must not degenerate into an always-sampled
	// process. At the defaults (1s window, 60s interval) it never
	// binds.
	windowDutyCycle = 9
)

// Metric names the profiler publishes.
const (
	CapturesTotalName   = "xar_profile_captures_total"
	CaptureDurationName = "xar_profile_capture_duration_seconds"
	OverheadRatioName   = "xar_profile_overhead_ratio"
)

// Config tunes a Profiler. The zero value plus a Registry is a
// production configuration.
type Config struct {
	// Registry receives the profiler's instruments (optional).
	Registry *telemetry.Registry
	// CPUWindow is the CPU sampling window per capture (0 → 1s,
	// negative → CPU capture disabled).
	CPUWindow time.Duration
	// FineSlots / CoarseSlots / PinnedSlots size the three rings
	// (0 → 64 / 48 / 16). Memory is fixed at ring capacity.
	FineSlots   int
	CoarseSlots int
	PinnedSlots int
	// Logf, when set, receives one line per skipped or failed capture.
	Logf func(format string, args ...any)
}

// Capture is one profiling snapshot: every kind folded to a flat
// table, goroutine counts by state, and the raw pprof blobs backing
// the folds (loadable by `go tool pprof`). Captures are immutable
// once stored except for the pin flag, which only mutates under the
// profiler's lock.
type Capture struct {
	ID   uint64  `json:"id"`
	Unix float64 `json:"unix"`
	// WorkSeconds is the capture's active cost — acquiring/stopping
	// the CPU profile, snapshotting and folding — and excludes the
	// passive CPU window. It is what the duty cycle budgets.
	WorkSeconds float64 `json:"work_seconds"`
	// CPUWindowSeconds is the realized sampling window (shorter than
	// configured when a Close interrupted it).
	CPUWindowSeconds float64 `json:"cpu_window_seconds,omitempty"`
	// CPUSkipped is set when the runtime's one CPU-profile slot was
	// taken (an operator's /debug/pprof/profile, another profiler).
	CPUSkipped   bool           `json:"cpu_skipped,omitempty"`
	Pinned       bool           `json:"pinned,omitempty"`
	PinReason    string         `json:"pin_reason,omitempty"`
	NumGoroutine int            `json:"num_goroutine"`
	Goroutines   map[string]int `json:"goroutines_by_state,omitempty"`
	Profiles     []*Folded      `json:"profiles"`

	raw map[string][]byte // raw pprof blobs: cpu, heap, mutex, block
}

// Folded returns the flat table for kind, or nil.
func (c *Capture) Folded(kind string) *Folded {
	for _, f := range c.Profiles {
		if f.Kind == kind {
			return f
		}
	}
	return nil
}

// Raw returns the raw pprof blob named name (cpu, heap, mutex or
// block — heap backs both heap kinds), or nil.
func (c *Capture) Raw(name string) []byte { return c.raw[name] }

// RawNames lists the capture's raw blobs in stable order.
func (c *Capture) RawNames() []string {
	names := make([]string, 0, len(c.raw))
	for n := range c.raw {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Summary is the list-endpoint view of a capture.
type Summary struct {
	ID           uint64   `json:"id"`
	Unix         float64  `json:"unix"`
	Rings        []string `json:"rings"`
	Pinned       bool     `json:"pinned,omitempty"`
	PinReason    string   `json:"pin_reason,omitempty"`
	CPUSkipped   bool     `json:"cpu_skipped,omitempty"`
	WorkSeconds  float64  `json:"work_seconds"`
	NumGoroutine int      `json:"num_goroutine"`
	Kinds        []string `json:"kinds"`
}

// ListFilter narrows List.
type ListFilter struct {
	PinnedOnly bool
	Since      float64 // unix seconds; 0 → no lower bound
	Limit      int     // 0 → all
}

// pendingFold is a cumulative fold awaiting delta subtraction at
// commit time.
type pendingFold struct {
	kind string
	unit string
	f    *folder
}

// Profiler is the continuous profiler. Build with New, then either
// Start a background worker (the engine does this when
// Config.ProfileInterval > 0) or call CaptureNow directly.
type Profiler struct {
	cfg       Config
	startTime time.Time

	// capMu serializes captures (the worker and CaptureNow callers).
	capMu    sync.Mutex
	stackBuf []byte

	// mu guards the rings, delta baselines, pin state and counters.
	mu             sync.Mutex
	nextID         uint64
	fine           telemetry.Ring[*Capture]
	coarse         telemetry.Ring[*Capture]
	pinned         telemetry.Ring[*Capture]
	lastCoarseUnix float64
	pinNext        string
	prev           map[string]map[string]Sample // kind → cumulative baseline
	workTotal      time.Duration

	worker    telemetry.Worker
	stop      chan struct{} // closed by Close: interrupts a CPU window
	closeOnce sync.Once

	captures *telemetry.Counter
	capDur   *telemetry.Histogram
	overhead *telemetry.Gauge
}

// Runtime sampling rates are process globals; refcount so the last
// live profiler restores them (keeps interleaved off/on benchmark
// arms honest about what "off" means).
var (
	sampleMu          sync.Mutex
	sampleRefs        int
	prevMutexFraction int
)

func enableSampling() {
	sampleMu.Lock()
	defer sampleMu.Unlock()
	if sampleRefs == 0 {
		prevMutexFraction = runtime.SetMutexProfileFraction(mutexFraction)
		runtime.SetBlockProfileRate(blockRateNs)
	}
	sampleRefs++
}

func disableSampling() {
	sampleMu.Lock()
	defer sampleMu.Unlock()
	sampleRefs--
	if sampleRefs == 0 {
		runtime.SetMutexProfileFraction(prevMutexFraction)
		runtime.SetBlockProfileRate(0)
	}
}

// New builds a Profiler and applies the mutex/block sampling rates.
// It does not start the worker; see Start.
func New(cfg Config) *Profiler {
	if cfg.CPUWindow == 0 {
		cfg.CPUWindow = DefaultCPUWindow
	}
	if cfg.FineSlots <= 0 {
		cfg.FineSlots = defaultFineSlots
	}
	if cfg.CoarseSlots <= 0 {
		cfg.CoarseSlots = defaultCoarseSlots
	}
	if cfg.PinnedSlots <= 0 {
		cfg.PinnedSlots = defaultPinnedSlots
	}
	p := &Profiler{
		cfg:       cfg,
		startTime: time.Now(),
		fine:      telemetry.NewRing(make([]*Capture, cfg.FineSlots)),
		coarse:    telemetry.NewRing(make([]*Capture, cfg.CoarseSlots)),
		pinned:    telemetry.NewRing(make([]*Capture, cfg.PinnedSlots)),
		prev:      make(map[string]map[string]Sample),
		stop:      make(chan struct{}),
	}
	enableSampling()
	if reg := cfg.Registry; reg != nil {
		p.captures = reg.Counter(CapturesTotalName, "profile captures taken", nil)
		p.capDur = reg.Histogram(CaptureDurationName, "active capture work per profile capture", telemetry.DurationBuckets(), nil)
		p.overhead = reg.Gauge(OverheadRatioName, "fraction of wall time spent on active capture work since the profiler started", nil)
	}
	return p
}

func (p *Profiler) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Start launches the background worker at the given cadence
// (0 → DefaultInterval). Idempotent; no-op after Close.
func (p *Profiler) Start(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	p.worker.Start(interval, func() time.Duration {
		c := p.capture()
		// Duty-cycle active work and the CPU window separately: the
		// window is a passive wait that costs samples rather than a
		// core, but SIGPROF delivery is not free either (measured
		// ~13% on a saturated single-core host with back-to-back
		// windows), so it gets its own, looser budget instead of the
		// 99x work floor — which would stretch the default 60s
		// cadence to ~100s for a 1s window.
		work := time.Duration(c.WorkSeconds * float64(time.Second))
		window := time.Duration(c.CPUWindowSeconds * float64(time.Second))
		return max(telemetry.Throttle(interval, work), window*windowDutyCycle)
	})
}

// Close stops the worker, interrupting a mid-capture CPU window, and
// restores the runtime sampling rates. Safe to call more than once
// and concurrently with captures.
func (p *Profiler) Close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		p.worker.Stop()
		disableSampling()
	})
}

// CaptureNow takes one capture synchronously and stores it in the
// rings. Safe to call while the worker runs (captures serialize).
func (p *Profiler) CaptureNow() *Capture { return p.capture() }

// PinLatest pins the newest capture into the always-keep ring and
// flags the next capture to pin too, bracketing the event with
// profiles on both sides.
func (p *Profiler) PinLatest(reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pinNext = reason
	if c, ok := p.fine.Newest(); ok && !c.Pinned {
		c.Pinned = true
		c.PinReason = reason
		p.pinned.Add(c)
	}
}

// AttachTo pins captures around slo's page transitions, the way the
// trace store pins slow/error traces.
func (p *Profiler) AttachTo(slo *telemetry.SLOEngine) {
	slo.OnPage(func(st telemetry.SLOStatus) { p.PinLatest("slo-page:" + st.Name) })
}

// ErrCPUBusy reports that another CPU profile owns the runtime's
// single profiling slot; the caller should skip this window.
var ErrCPUBusy = errors.New("profile: another CPU profile is already running")

// startCPU starts a CPU profile writing to w; pprof.StopCPUProfile ends
// it. The runtime allows one CPU profile at a time, and a Profiler's
// captures already serialise on its capMu, so the only contender is
// someone outside it (net/http/pprof, a second Profiler, a test): the
// loser gets ErrCPUBusy and skips its window.
func startCPU(w io.Writer) error {
	if err := pprof.StartCPUProfile(w); err != nil {
		return fmt.Errorf("%w: %v", ErrCPUBusy, err)
	}
	return nil
}

func (p *Profiler) capture() *Capture {
	p.capMu.Lock()
	defer p.capMu.Unlock()

	c := &Capture{raw: make(map[string][]byte)}
	var work time.Duration
	var pending []pendingFold

	if p.cfg.CPUWindow > 0 {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := startCPU(&buf); err != nil {
			c.CPUSkipped = true
			p.logf("profile: cpu window skipped: %v", err)
		} else {
			armed := time.Now()
			timer := time.NewTimer(p.cfg.CPUWindow)
			select {
			case <-p.stop: // Close interrupts the window
			case <-timer.C:
			}
			timer.Stop()
			windowEnd := time.Now()
			pprof.StopCPUProfile()
			c.CPUWindowSeconds = windowEnd.Sub(armed).Seconds()
			work += armed.Sub(t0)
			foldStart := time.Now()
			if parsed, err := parsePprof(buf.Bytes()); err != nil {
				p.logf("profile: cpu parse: %v", err)
			} else if vi := parsed.valueIndex("cpu"); vi >= 0 {
				c.Profiles = append(c.Profiles, foldParsed(parsed, vi).finish(KindCPU, "nanoseconds", topN))
			}
			if len(buf.Bytes()) <= maxRawBytes {
				c.raw["cpu"] = buf.Bytes()
			}
			work += time.Since(foldStart)
		}
	}

	workStart := time.Now()
	c.NumGoroutine = runtime.NumGoroutine()
	c.Goroutines = p.goroutineStates()

	// heap: inuse_space is a live gauge, alloc_space cumulative.
	if raw, parsed, ok := p.lookup("heap"); ok {
		if vi := parsed.valueIndex("inuse_space"); vi >= 0 {
			c.Profiles = append(c.Profiles, foldParsed(parsed, vi).finish(KindHeapInuse, "bytes", topN))
		}
		if vi := parsed.valueIndex("alloc_space"); vi >= 0 {
			pending = append(pending, pendingFold{KindHeapAlloc, "bytes", foldParsed(parsed, vi)})
		}
		if len(raw) <= maxRawBytes {
			c.raw["heap"] = raw
		}
	}
	// mutex/block: the runtime writes delay in nanoseconds, cumulative
	// since the sampling rate was set.
	for _, kind := range []struct{ lookup, kind string }{{"mutex", KindMutex}, {"block", KindBlock}} {
		raw, parsed, ok := p.lookup(kind.lookup)
		if !ok {
			continue
		}
		if vi := parsed.valueIndex("delay"); vi >= 0 {
			pending = append(pending, pendingFold{kind.kind, "nanoseconds", foldParsed(parsed, vi)})
		}
		if len(raw) <= maxRawBytes {
			c.raw[kind.lookup] = raw
		}
	}
	work += time.Since(workStart)

	// Commit: assign the id, subtract cumulative baselines, pin, ring.
	commitStart := time.Now()
	p.mu.Lock()
	p.nextID++
	c.ID = p.nextID
	c.Unix = float64(time.Now().UnixNano()) / 1e9
	for _, pf := range pending {
		snap := pf.f.snapshot()
		if prev, ok := p.prev[pf.kind]; ok {
			pf.f.subtract(prev)
		}
		// First capture: the delta is "since the profiler started",
		// which is the interval it actually covers.
		p.prev[pf.kind] = snap
		c.Profiles = append(c.Profiles, pf.f.finish(pf.kind, pf.unit, topN))
	}
	if p.pinNext != "" {
		c.Pinned = true
		c.PinReason = p.pinNext
		p.pinNext = ""
		p.pinned.Add(c)
	}
	p.fine.Add(c)
	if p.lastCoarseUnix == 0 || c.Unix-p.lastCoarseUnix >= coarseEvery.Seconds() {
		p.coarse.Add(c)
		p.lastCoarseUnix = c.Unix
	}
	work += time.Since(commitStart)
	c.WorkSeconds = work.Seconds()
	p.workTotal += work
	if p.captures != nil {
		p.captures.Inc()
		p.capDur.Observe(c.WorkSeconds)
		if wall := time.Since(p.startTime).Seconds(); wall > 0 {
			r := p.workTotal.Seconds() / wall
			if r > 1 {
				r = 1
			}
			p.overhead.Set(r)
		}
	}
	p.mu.Unlock()
	return c
}

// lookup serializes a runtime profile to its pprof protobuf form and
// parses it back.
func (p *Profiler) lookup(name string) ([]byte, *parsedProfile, bool) {
	prof := pprof.Lookup(name)
	if prof == nil {
		return nil, nil, false
	}
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 0); err != nil {
		p.logf("profile: %s: %v", name, err)
		return nil, nil, false
	}
	parsed, err := parsePprof(buf.Bytes())
	if err != nil {
		p.logf("profile: %s parse: %v", name, err)
		return nil, nil, false
	}
	return buf.Bytes(), parsed, true
}

// goroutineStates counts goroutines by scheduler state ("running",
// "chan receive", "IO wait", ...) from a full runtime.Stack dump.
// Called with capMu held (reuses the profiler's scratch buffer).
func (p *Profiler) goroutineStates() map[string]int {
	if p.stackBuf == nil {
		p.stackBuf = make([]byte, 1<<20)
	}
	var dump []byte
	for {
		n := runtime.Stack(p.stackBuf, true)
		if n < len(p.stackBuf) || len(p.stackBuf) >= 8<<20 {
			dump = p.stackBuf[:n]
			break
		}
		p.stackBuf = make([]byte, 2*len(p.stackBuf))
	}
	counts := make(map[string]int)
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "goroutine ") {
			continue
		}
		i := strings.IndexByte(line, '[')
		if i < 0 {
			continue
		}
		j := strings.IndexAny(line[i+1:], ",]")
		if j < 0 {
			continue
		}
		counts[line[i+1:i+1+j]]++
	}
	return counts
}

// find returns the stored capture with the given id, or nil.
// Caller holds p.mu.
func (p *Profiler) find(id uint64) *Capture {
	for _, r := range []*telemetry.Ring[*Capture]{&p.fine, &p.coarse, &p.pinned} {
		for _, c := range r.AppendTo(nil) {
			if c.ID == id {
				return c
			}
		}
	}
	return nil
}

// Get returns a copy of the capture with the given id. The copy
// shares the (immutable) fold tables and raw blobs; the mutable pin
// flag is snapshotted under the lock.
func (p *Profiler) Get(id uint64) (Capture, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.find(id); c != nil {
		return *c, true
	}
	return Capture{}, false
}

// Newest returns a copy of the most recent capture, or false.
func (p *Profiler) Newest() (Capture, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.fine.Newest(); ok {
		return *c, true
	}
	return Capture{}, false
}

// List returns capture summaries, newest first, across all rings.
func (p *Profiler) List(f ListFilter) []Summary {
	p.mu.Lock()
	defer p.mu.Unlock()
	byID := make(map[uint64]*Summary)
	collect := func(name string, r *telemetry.Ring[*Capture]) {
		for _, c := range r.AppendTo(nil) {
			s := byID[c.ID]
			if s == nil {
				kinds := make([]string, 0, len(c.Profiles))
				for _, fd := range c.Profiles {
					kinds = append(kinds, fd.Kind)
				}
				s = &Summary{
					ID: c.ID, Unix: c.Unix,
					Pinned: c.Pinned, PinReason: c.PinReason,
					CPUSkipped: c.CPUSkipped, WorkSeconds: c.WorkSeconds,
					NumGoroutine: c.NumGoroutine, Kinds: kinds,
				}
				byID[c.ID] = s
			}
			s.Rings = append(s.Rings, name)
		}
	}
	collect("fine", &p.fine)
	collect("coarse", &p.coarse)
	collect("pinned", &p.pinned)
	out := make([]Summary, 0, len(byID))
	for _, s := range byID {
		if f.PinnedOnly && !s.Pinned {
			continue
		}
		if f.Since > 0 && s.Unix < f.Since {
			continue
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// DiffCaptures computes the symbol-level delta of one kind between
// two stored captures ("what regressed between 12:00 and 12:05").
func (p *Profiler) DiffCaptures(fromID, toID uint64, kind string, limit int) (*Diff, error) {
	from, ok := p.Get(fromID)
	if !ok {
		return nil, fmt.Errorf("profile: capture %d not found", fromID)
	}
	to, ok := p.Get(toID)
	if !ok {
		return nil, fmt.Errorf("profile: capture %d not found", toID)
	}
	ff, tf := from.Folded(kind), to.Folded(kind)
	if ff == nil || tf == nil {
		return nil, fmt.Errorf("profile: kind %q not present in both captures", kind)
	}
	d := diffFolded(ff, tf, limit)
	d.FromID, d.ToID = from.ID, to.ID
	d.FromUnix, d.ToUnix = from.Unix, to.Unix
	return d, nil
}

// MeasureMem implements memsize.Measurer: the rings, their captures
// (folds + raw blobs) and the delta baselines, walked under the
// profiler's lock. Nil-receiver-safe.
func (p *Profiler) MeasureMem(a *memsize.Accumulator) {
	if p == nil {
		return
	}
	p.mu.Lock()
	a.Add(p.fine)
	a.Add(p.coarse)
	a.Add(p.pinned)
	a.Add(p.prev)
	p.mu.Unlock()
}

// formatValue renders a flat value in its unit for log summaries.
func formatValue(v int64, unit string) string {
	switch unit {
	case "nanoseconds":
		return time.Duration(v).Round(10 * time.Microsecond).String()
	case "bytes":
		switch {
		case v >= 1<<20:
			return fmt.Sprintf("%.1fMB", float64(v)/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.1fKB", float64(v)/(1<<10))
		}
		return fmt.Sprintf("%dB", v)
	}
	return fmt.Sprintf("%d", v)
}

// TopLines renders kind's top-n rows as "flat  func" lines for the
// cmd tools' post-run summaries. Returns nil when the kind is absent
// or empty.
func TopLines(c *Capture, kind string, n int) []string {
	f := c.Folded(kind)
	if f == nil || len(f.Rows) == 0 || f.Total == 0 {
		return nil
	}
	if n > len(f.Rows) {
		n = len(f.Rows)
	}
	lines := make([]string, 0, n)
	for _, row := range f.Rows[:n] {
		if row.Flat == 0 {
			break
		}
		lines = append(lines, fmt.Sprintf("%10s %5.1f%%  %s",
			formatValue(row.Flat, f.Unit), 100*float64(row.Flat)/float64(f.Total), row.Func))
	}
	return lines
}

// TopSymbol returns the hottest function of kind and its share of the
// kind's total, for per-step attribution in bench artifacts.
func TopSymbol(c *Capture, kind string) (string, float64) {
	f := c.Folded(kind)
	if f == nil || len(f.Rows) == 0 || f.Total == 0 || f.Rows[0].Flat == 0 {
		return "", 0
	}
	return f.Rows[0].Func, float64(f.Rows[0].Flat) / float64(f.Total)
}

// SummaryLines renders a capture as per-kind top-n blocks — the
// post-run summary the cmd tools print. Kinds with no samples are
// omitted; a capture taken right after a baseline capture therefore
// summarizes just the work between the two (the cumulative kinds are
// deltas against the previous capture).
func SummaryLines(c *Capture, n int) []string {
	var lines []string
	for _, kind := range Kinds {
		top := TopLines(c, kind, n)
		if len(top) == 0 {
			continue
		}
		f := c.Folded(kind)
		lines = append(lines, fmt.Sprintf("%s (total %s):", kind, formatValue(f.Total, f.Unit)))
		for _, l := range top {
			lines = append(lines, "  "+l)
		}
	}
	return lines
}
