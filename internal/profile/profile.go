// Package profile implements always-on continuous profiling for the
// process: a background worker that periodically captures the
// runtime's profiles — a short duty-cycled CPU window, the heap, mutex
// and block profiles, and goroutine counts by state — and stores the
// pprof blobs the runtime wrote, unparsed, in fixed-memory
// overwrite-oldest rings (a fine ring of every capture, a coarse
// one-per-hour ring for the longer view, and an always-keep ring of
// captures pinned by SLO page transitions).
//
// Reading a capture is `go tool pprof`'s job: -top on one blob says
// where the time or the bytes went, and -diff_base=<older> <newer>
// says what changed between two captures (the heap's alloc_space and
// the mutex and block delays are cumulative, so only a diff isolates
// an interval).
//
// The worker is a telemetry.Worker under the same duty-cycle discipline
// as the memory sweeper (telemetry.Throttle): after a capture whose
// active work took d, the next one is at least 99×d away, bounding
// capture cost to ≤1% of one core. The passive CPU sampling window (the
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

	// fineSlots, coarseSlots and pinnedSlots size the three rings;
	// memory is fixed at their capacity.
	fineSlots   = 64
	coarseSlots = 48
	pinnedSlots = 16

	// coarseEvery is the coarse ring's cadence.
	coarseEvery = time.Hour
	// maxRawBytes caps each stored pprof blob; a larger one is dropped
	// and named in the capture's Dropped list.
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
	// Logf, when set, receives one line per skipped or failed capture.
	Logf func(format string, args ...any)
}

// Kinds names the pprof blobs a capture can hold, in capture order.
var Kinds = []string{"cpu", "heap", "mutex", "block"}

// Capture is one profiling snapshot: goroutine counts by state and
// the pprof blobs the runtime wrote (loadable by `go tool pprof`).
// Captures are immutable once stored except for the pin flag, which
// only mutates under the profiler's lock.
type Capture struct {
	ID   uint64  `json:"id"`
	Unix float64 `json:"unix"`
	// WorkSeconds is the capture's active cost — starting the CPU
	// profile and writing the other profiles — and excludes the
	// passive CPU window and the runtime's flush of it on stop (up to
	// 100 ms asleep in its profile writer). It is what the duty cycle
	// budgets.
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
	// Kinds lists the blobs the capture holds; Dropped those the
	// runtime wrote past maxRawBytes, which were not kept.
	Kinds   []string `json:"kinds"`
	Dropped []string `json:"dropped,omitempty"`

	raw map[string][]byte // kind → pprof blob
}

// Raw returns the pprof blob of kind (one of Kinds), or nil.
func (c *Capture) Raw(kind string) []byte { return c.raw[kind] }

// keep stores blob as kind, or names it in Dropped when it is over
// the memory cap.
func (c *Capture) keep(kind string, blob []byte) {
	if len(blob) > maxRawBytes {
		c.Dropped = append(c.Dropped, kind)
		return
	}
	c.raw[kind] = blob
	c.Kinds = append(c.Kinds, kind)
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
	Dropped      []string `json:"dropped,omitempty"`
}

// ListFilter narrows List.
type ListFilter struct {
	PinnedOnly bool
	Since      float64 // unix seconds; 0 → no lower bound
	Limit      int     // 0 → all
}

// Profiler is the continuous profiler. Build with New, then either
// Start a background worker (xarserver does this when -profile-interval
// > 0) or call CaptureNow directly.
type Profiler struct {
	cfg       Config
	startTime time.Time

	// capMu serializes captures (the worker and CaptureNow callers).
	capMu    sync.Mutex
	stackBuf []byte

	// mu guards the rings, pin state and counters.
	mu             sync.Mutex
	nextID         uint64
	fine           telemetry.Ring[*Capture]
	coarse         telemetry.Ring[*Capture]
	pinned         telemetry.Ring[*Capture]
	lastCoarseUnix float64
	pinNext        string
	workTotal      time.Duration

	worker    telemetry.Worker
	stop      chan struct{} // closed by Close: interrupts a CPU window
	closeOnce sync.Once

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
func New(cfg Config) *Profiler { return newWithRings(cfg, fineSlots, coarseSlots, pinnedSlots) }

// newWithRings is New with the three ring sizes given; the package's
// tests shrink the rings through it.
func newWithRings(cfg Config, fine, coarse, pinned int) *Profiler {
	if cfg.CPUWindow == 0 {
		cfg.CPUWindow = DefaultCPUWindow
	}
	p := &Profiler{
		cfg:       cfg,
		startTime: time.Now(),
		fine:      telemetry.NewRing(make([]*Capture, fine)),
		coarse:    telemetry.NewRing(make([]*Capture, coarse)),
		pinned:    telemetry.NewRing(make([]*Capture, pinned)),
		stop:      make(chan struct{}),
	}
	enableSampling()
	if reg := cfg.Registry; reg != nil {
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

	c := &Capture{raw: make(map[string][]byte, len(Kinds))}
	var work time.Duration

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
			c.keep("cpu", buf.Bytes())
		}
	}

	workStart := time.Now()
	c.NumGoroutine = runtime.NumGoroutine()
	c.Goroutines = p.goroutineStates()
	// heap's alloc_space and the mutex and block delays are cumulative
	// (since the process, or since New set the sampling rates); a diff
	// against an older capture isolates the interval.
	for _, kind := range Kinds[1:] {
		var buf bytes.Buffer
		if err := pprof.Lookup(kind).WriteTo(&buf, 0); err != nil {
			p.logf("profile: %s: %v", kind, err)
			continue
		}
		c.keep(kind, buf.Bytes())
	}
	work += time.Since(workStart)

	// Commit: assign the id, pin, ring.
	commitStart := time.Now()
	p.mu.Lock()
	p.nextID++
	c.ID = p.nextID
	c.Unix = float64(time.Now().UnixNano()) / 1e9
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
	if p.capDur != nil {
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
// shares the (immutable) blobs; the mutable pin flag is snapshotted
// under the lock.
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
				s = &Summary{
					ID: c.ID, Unix: c.Unix,
					Pinned: c.Pinned, PinReason: c.PinReason,
					CPUSkipped: c.CPUSkipped, WorkSeconds: c.WorkSeconds,
					NumGoroutine: c.NumGoroutine, Kinds: c.Kinds, Dropped: c.Dropped,
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

// MeasureMem implements memsize.Measurer: the rings and their
// captures' blobs, walked under the profiler's lock.
// Nil-receiver-safe.
func (p *Profiler) MeasureMem(a *memsize.Accumulator) {
	if p == nil {
		return
	}
	p.mu.Lock()
	a.Add(p.fine)
	a.Add(p.coarse)
	a.Add(p.pinned)
	p.mu.Unlock()
}
