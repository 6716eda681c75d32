package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"xar/internal/memsize"
	"xar/internal/telemetry"
)

// quickConfig disables the CPU window so captures are fast and cannot
// contend with other tests' CPU profiles.
func quickConfig(reg *telemetry.Registry) Config {
	return Config{Registry: reg, CPUWindow: -1, Logf: func(string, ...any) {}}
}

func TestCaptureNowKindsAndMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(quickConfig(reg))
	defer p.Close()
	c := p.CaptureNow()
	if c.ID != 1 {
		t.Fatalf("first capture id = %d, want 1", c.ID)
	}
	if got, want := strings.Join(c.Kinds, ","), "heap,mutex,block"; got != want {
		t.Errorf("kinds = %s, want %s (no cpu with the CPU window disabled)", got, want)
	}
	for _, kind := range c.Kinds {
		if len(c.Raw(kind)) == 0 {
			t.Errorf("%s blob missing", kind)
		}
	}
	if c.NumGoroutine <= 0 || len(c.Goroutines) == 0 {
		t.Errorf("goroutine accounting empty: n=%d states=%v", c.NumGoroutine, c.Goroutines)
	}
	// Histogram registered and observed once per capture: re-requesting
	// the same family returns the live instrument.
	if got := reg.Histogram(CaptureDurationName, "", nil, nil).Count(); got != 1 {
		t.Fatalf("%s count = %d, want 1", CaptureDurationName, got)
	}
}

func TestCaptureCPUWindow(t *testing.T) {
	p := New(Config{CPUWindow: 50 * time.Millisecond})
	defer p.Close()
	// Burn CPU during the window so samples land.
	stopBurn := make(chan struct{})
	go func() {
		x := 0
		for {
			select {
			case <-stopBurn:
				return
			default:
				x++
			}
		}
	}()
	c := p.CaptureNow()
	close(stopBurn)
	if c.CPUSkipped {
		t.Fatal("cpu window skipped with no competing profile")
	}
	if c.CPUWindowSeconds < 0.04 {
		t.Errorf("cpu window = %.3fs, want ≈0.05s", c.CPUWindowSeconds)
	}
	// The blob is the gzipped protobuf the runtime wrote;
	// TestParseRuntimeHeapProfile loads it in the toolchain.
	gz, err := gzip.NewReader(bytes.NewReader(c.Raw("cpu")))
	if err != nil {
		t.Fatalf("cpu blob is not gzipped: %v", err)
	}
	if _, err := io.ReadAll(gz); err != nil {
		t.Fatalf("cpu blob gunzip: %v", err)
	}
}

// TestOverCapBlobIsDropped: a blob past maxRawBytes is not kept, and
// the capture names it in Dropped instead of Kinds.
func TestOverCapBlobIsDropped(t *testing.T) {
	c := &Capture{raw: map[string][]byte{}}
	c.keep("heap", make([]byte, maxRawBytes))
	c.keep("mutex", make([]byte, maxRawBytes+1))
	if len(c.Kinds) != 1 || c.Kinds[0] != "heap" || len(c.Dropped) != 1 || c.Dropped[0] != "mutex" || c.Raw("mutex") != nil {
		t.Fatalf("kinds %v, dropped %v", c.Kinds, c.Dropped)
	}
}

func TestRingWraparoundRetentionAndMemory(t *testing.T) {
	p := newWithRings(Config{CPUWindow: -1}, 8, 2, 2)
	defer p.Close()

	// Fixed-memory fence, the memsize pattern: fill the fine ring with
	// same-size captures, measure, then overwrite it twice more — a
	// full ring that keeps being overwritten must not grow. Synthetic
	// captures keep the payload size exact so the fence is
	// deterministic (real captures drift with the process's
	// allocation-site set).
	synth := func(id uint64) *Capture {
		return &Capture{
			ID:         id,
			Kinds:      []string{"cpu"},
			Goroutines: map[string]int{"running": 1},
			raw:        map[string][]byte{"cpu": make([]byte, 32<<10)},
		}
	}
	add := func(c *Capture) {
		p.mu.Lock()
		p.fine.Add(c)
		p.mu.Unlock()
	}
	for i := uint64(1); i <= 8; i++ {
		add(synth(i))
	}
	measure := func() uint64 {
		a := memsize.NewAccumulator()
		p.MeasureMem(a)
		return a.Total()
	}
	base := measure()
	if base < 8*32<<10 {
		t.Fatalf("MeasureMem = %d for a full ring of 8 × 32KiB raws — not walking captures", base)
	}
	for i := uint64(9); i <= 24; i++ {
		add(synth(i))
	}
	grown := measure()
	if float64(grown) > float64(base)*1.10 {
		t.Errorf("ring memory grew %.1f%% after 2x more saturation (base %d, now %d) — ring is not fixed-memory",
			100*(float64(grown)/float64(base)-1), base, grown)
	}

	// Retention with real captures: oldest evicted from the fine ring,
	// newest kept. (The very first capture legitimately survives in
	// the coarse ring — that is the second resolution doing its job.)
	p2 := newWithRings(Config{CPUWindow: -1}, 4, 2, pinnedSlots)
	defer p2.Close()
	for i := 0; i < 8; i++ {
		p2.CaptureNow()
	}
	fineIDs := make(map[uint64][]string)
	for _, s := range p2.List(ListFilter{}) {
		fineIDs[s.ID] = s.Rings
	}
	if rings, ok := fineIDs[1]; ok {
		if len(rings) != 1 || rings[0] != "coarse" {
			t.Errorf("capture 1 should survive only in the coarse ring, got %v", rings)
		}
	}
	for want := uint64(5); want <= 8; want++ {
		if _, ok := fineIDs[want]; !ok {
			t.Errorf("capture %d missing after wraparound (have %v)", want, fineIDs)
		}
	}
	if _, ok := fineIDs[2]; ok {
		t.Errorf("capture 2 not evicted from a 4-slot fine ring: %v", fineIDs)
	}
}

func TestPinLatestSurvivesFineEviction(t *testing.T) {
	p := newWithRings(Config{CPUWindow: -1}, 4, coarseSlots, 4)
	defer p.Close()
	c := p.CaptureNow()
	p.PinLatest("slo-page:test")
	// pinNext: the capture after the pin is bracketed in too.
	p.CaptureNow()
	for i := 0; i < 8; i++ {
		p.CaptureNow() // evict both from the fine ring
	}
	got, ok := p.Get(c.ID)
	if !ok {
		t.Fatal("pinned capture evicted")
	}
	if !got.Pinned || got.PinReason != "slo-page:test" {
		t.Fatalf("pinned capture state = %+v", got)
	}
	if next, ok := p.Get(c.ID + 1); !ok || !next.Pinned {
		t.Fatal("capture following the page was not pinned (bracket)")
	}
	pinned := p.List(ListFilter{PinnedOnly: true})
	if len(pinned) != 2 {
		t.Fatalf("pinned list = %d entries, want 2", len(pinned))
	}
}

// TestWorkerCloseInterruptsCaptureWindow: Close must return promptly
// even when the worker is mid-way through a long CPU window, and
// double-Close must be safe.
func TestWorkerCloseInterruptsCaptureWindow(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(Config{CPUWindow: 30 * time.Second, Logf: func(string, ...any) {}})
	p.Start(time.Millisecond) // first capture starts almost immediately
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		p.Close()
		p.Close() // double-Close
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the mid-capture CPU window")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked after Close: %d > %d", n, before)
	}
}

func TestStartIsIdempotentAndCloseIsFinal(t *testing.T) {
	p := New(quickConfig(nil))
	p.Start(time.Hour)
	p.Start(time.Hour) // second Start is a no-op, not a second worker
	p.Close()
	p.Start(time.Hour) // Start after Close must not revive the worker
	p.Close()
}

// TestConcurrentCaptureServeMutate is the 8-goroutine race stress:
// capture, list/get, blob reads and pin mutation all interleave under
// -race.
func TestConcurrentCaptureServeMutate(t *testing.T) {
	p := newWithRings(Config{CPUWindow: -1, Logf: func(string, ...any) {}}, 8, coarseSlots, pinnedSlots)
	defer p.Close()
	p.CaptureNow()
	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0: // capture
					p.CaptureNow()
				case 1: // serve lists and gets
					for _, s := range p.List(ListFilter{Limit: 4}) {
						p.Get(s.ID)
					}
				case 2: // read the newest capture's blobs
					if c, ok := p.Newest(); ok {
						for _, kind := range c.Kinds {
							_ = len(c.Raw(kind))
						}
					}
				case 3: // mutate pins and measure
					p.PinLatest(fmt.Sprintf("stress-%d-%d", w, i))
					a := memsize.NewAccumulator()
					p.MeasureMem(a)
				}
			}
		}(w)
	}
	wg.Wait()
}

// --- SLO pages and the runtime's one CPU-profile slot ---

// sloFixture drives a telemetry SLO engine to a page transition using
// the public API (mirrors the fixture the telemetry tests use).
type sloFixture struct {
	h   *telemetry.Histogram
	rec *telemetry.Recorder
	slo *telemetry.SLOEngine
	now float64
}

func newSLOFixture() *sloFixture {
	reg := telemetry.NewRegistry()
	h := reg.Histogram(telemetry.OpDurationName, "op latency", telemetry.DurationBuckets(), telemetry.L("op", "search"))
	rec := telemetry.NewRecorder(reg, telemetry.RecorderConfig{Interval: 10 * time.Second, Retention: time.Hour})
	slo := telemetry.NewSLOEngine(rec, telemetry.LatencyObjective("search-p95", telemetry.OpDurationName, telemetry.L("op", "search"), 0.010, 0.95))
	return &sloFixture{h: h, rec: rec, slo: slo, now: 10_000}
}

func (f *sloFixture) tick(n int, v float64) {
	for i := 0; i < n; i++ {
		f.h.Observe(v)
	}
	f.rec.TickAt(f.now)
	f.now += 10
}

// page drives the fixture from healthy to a page transition.
func (f *sloFixture) page() {
	for i := 0; i < 216; i++ {
		f.tick(100, 0.001)
	}
	for i := 0; i < 60; i++ {
		f.tick(100, 0.5)
	}
}

// TestPageWhileCaptureMidWindow: an SLO page fires while a capture holds
// its CPU window open. The capture keeps its window and the page pins
// it — the bracket the debug bundle ships.
func TestPageWhileCaptureMidWindow(t *testing.T) {
	p := New(Config{CPUWindow: 400 * time.Millisecond, Logf: func(string, ...any) {}})
	defer p.Close()
	f := newSLOFixture()
	p.AttachTo(f.slo)

	capDone := make(chan *Capture, 1)
	go func() { capDone <- p.CaptureNow() }()
	time.Sleep(50 * time.Millisecond) // window is now open

	f.page() // fires the OnPage hook synchronously

	c := <-capDone
	if c.CPUSkipped {
		t.Fatal("capture lost its own window")
	}
	pinned := p.List(ListFilter{PinnedOnly: true})
	if len(pinned) == 0 {
		t.Fatal("page transition pinned no captures")
	}
	if got, ok := p.Get(pinned[0].ID); !ok || len(got.Raw("cpu")) == 0 {
		t.Error("pinned capture carries no raw CPU profile")
	}
}

// TestCaptureSkipsWhenCPUSlotHeld: the capture must skip its CPU window
// (CPUSkipped) rather than fail when someone else — an operator's
// /debug/pprof/profile — owns the runtime's one CPU-profile slot.
func TestCaptureSkipsWhenCPUSlotHeld(t *testing.T) {
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatal(err)
	}
	defer pprof.StopCPUProfile()

	p := New(Config{CPUWindow: 50 * time.Millisecond, Logf: func(string, ...any) {}})
	defer p.Close()
	c := p.CaptureNow()
	if !c.CPUSkipped {
		t.Fatal("capture did not skip while the CPU slot was held")
	}
	if c.Raw("heap") == nil {
		t.Error("skipped CPU window dropped the rest of the capture")
	}
}
