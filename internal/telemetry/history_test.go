package telemetry

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tickSeries drives rec with one tick per second of simulated time,
// observing fn before each tick.
func tickSeries(rec *Recorder, start float64, n int, step float64, fn func(i int)) {
	for i := 0; i < n; i++ {
		if fn != nil {
			fn(i)
		}
		rec.TickAt(start + float64(i)*step)
	}
}

func findSeries(t *testing.T, dump HistoryDump, name string) HistorySeries {
	t.Helper()
	for _, s := range dump.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q not in dump (have %d series)", name, len(dump.Series))
	return HistorySeries{}
}

func TestRecorderCounterRates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("xar_test_events_total", "test", nil)
	rec := NewRecorder(reg, RecorderConfig{Interval: 10 * time.Second, Retention: 10 * time.Minute})

	// 10 events per 10s tick → rate 1.0/s at every window.
	tickSeries(rec, 1000, 30, 10, func(i int) { c.Add(10) })

	dump := rec.History(HistoryQuery{Name: "xar_test_events_total", Window: time.Minute})
	s := findSeries(t, dump, "xar_test_events_total")
	if len(s.Points) != 30 {
		t.Fatalf("points = %d, want 30", len(s.Points))
	}
	last := s.Points[len(s.Points)-1]
	if last.Rate == nil || math.Abs(*last.Rate-1.0) > 1e-9 {
		t.Fatalf("last rate = %v, want 1.0", last.Rate)
	}
	// First point has no anchor → no rate.
	if s.Points[0].Rate != nil {
		t.Fatalf("first point rate = %v, want nil", *s.Points[0].Rate)
	}
	// Chronological ordering.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Unix <= s.Points[i-1].Unix {
			t.Fatalf("points not chronological at %d: %v then %v", i, s.Points[i-1].Unix, s.Points[i].Unix)
		}
	}
}

// TestRecorderWraparound drives the ring far past capacity and checks
// retention eviction plus correct windowed math across the ring seam.
func TestRecorderWraparound(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("xar_test_events_total", "test", nil)
	// 6 slots of 10s = 1 minute retention.
	rec := NewRecorder(reg, RecorderConfig{Interval: 10 * time.Second, Retention: time.Minute})
	if rec.slots != 6 {
		t.Fatalf("slots = %d, want 6", rec.slots)
	}

	// 20 ticks into a 6-slot ring: wraps 3×. Rate ramps so each window
	// has a distinct answer: tick i adds i events.
	total := uint64(0)
	tickSeries(rec, 2000, 20, 10, func(i int) {
		c.Add(uint64(i))
		total += uint64(i)
	})
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}

	dump := rec.History(HistoryQuery{Name: "xar_test_events_total", Window: 30 * time.Second})
	if dump.Snapshots != 6 {
		t.Fatalf("snapshots = %d, want 6 (retention eviction)", dump.Snapshots)
	}
	s := findSeries(t, dump, "xar_test_events_total")
	if len(s.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(s.Points))
	}
	// Oldest retained tick is #14 (ticks 0..13 evicted): stamps 2140..2190.
	if got, want := s.Points[0].Unix, 2140.0; got != want {
		t.Fatalf("oldest stamp = %v, want %v", got, want)
	}
	if got, want := s.Points[5].Unix, 2190.0; got != want {
		t.Fatalf("newest stamp = %v, want %v", got, want)
	}
	// Newest point, 30s window: anchor is tick 16 (stamp 2160). Counter
	// delta = adds at ticks 17+18+19 = 54 over 30s = 1.8/s. The ring seam
	// (physical slot 0 holding logical tick 18) sits inside this window,
	// so a seam bug would corrupt exactly this answer.
	last := s.Points[5]
	if last.Rate == nil {
		t.Fatal("newest point has no rate")
	}
	if want := 54.0 / 30.0; math.Abs(*last.Rate-want) > 1e-9 {
		t.Fatalf("seam-window rate = %v, want %v", *last.Rate, want)
	}
}

func TestRecorderHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("xar_test_duration_seconds", "test", DurationBuckets(), nil)
	rec := NewRecorder(reg, RecorderConfig{Interval: 10 * time.Second, Retention: 10 * time.Minute})

	// Phase 1 (ticks 0..9): fast ops ~1ms. Phase 2 (ticks 10..19): slow
	// ops ~100ms. A windowed quantile must see only its window's phase.
	tickSeries(rec, 3000, 20, 10, func(i int) {
		v := 0.001
		if i >= 10 {
			v = 0.1
		}
		for k := 0; k < 100; k++ {
			h.Observe(v)
		}
	})

	dump := rec.History(HistoryQuery{Name: "xar_test_duration_seconds", Window: 50 * time.Second})
	s := findSeries(t, dump, "xar_test_duration_seconds")
	last := s.Points[len(s.Points)-1]
	if last.P95 == nil {
		t.Fatal("no p95 on newest point")
	}
	// Window covers only slow-phase observations; p95 must sit near 100ms,
	// nowhere near the 1ms fast phase that dominates the cumulative total.
	if *last.P95 < 0.05 || *last.P95 > 0.2 {
		t.Fatalf("windowed p95 = %v, want ≈0.1", *last.P95)
	}
	if last.Count == nil || *last.Count != 500 {
		t.Fatalf("windowed count = %v, want 500", last.Count)
	}
	// Whole-history cumulative quantile would be ~1ms at p50; the early
	// point inside phase 1 must reflect that.
	early := s.Points[7]
	if early.P50 == nil || *early.P50 > 0.01 {
		t.Fatalf("fast-phase p50 = %v, want ≈0.001", early.P50)
	}
}

func TestRecorderGaugeAndLateSeries(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("xar_test_depth", "test", nil)
	rec := NewRecorder(reg, RecorderConfig{Interval: 10 * time.Second, Retention: 5 * time.Minute})

	var late *Counter
	tickSeries(rec, 4000, 10, 10, func(i int) {
		g.Set(float64(i))
		if i == 5 {
			// A series born mid-flight must not report garbage for slots
			// predating its registration.
			late = reg.Counter("xar_test_late_total", "test", nil)
		}
		if late != nil {
			late.Inc()
		}
	})

	dump := rec.History(HistoryQuery{Window: 30 * time.Second})
	gs := findSeries(t, dump, "xar_test_depth")
	lastG := gs.Points[len(gs.Points)-1]
	if lastG.Value == nil || *lastG.Value != 9 {
		t.Fatalf("gauge last = %v, want 9", lastG.Value)
	}
	ls := findSeries(t, dump, "xar_test_late_total")
	if len(ls.Points) != 5 {
		t.Fatalf("late-series points = %d, want 5 (ticks 5..9)", len(ls.Points))
	}
	if ls.Points[0].Unix != 4050 {
		t.Fatalf("late-series first stamp = %v, want 4050", ls.Points[0].Unix)
	}
}

func TestRecorderSinceAndMaxPoints(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("xar_test_events_total", "test", nil)
	rec := NewRecorder(reg, RecorderConfig{Interval: 10 * time.Second, Retention: time.Hour})
	tickSeries(rec, 5000, 60, 10, func(i int) { c.Inc() })

	dump := rec.History(HistoryQuery{Since: 200 * time.Second, Window: time.Minute})
	s := findSeries(t, dump, "xar_test_events_total")
	for _, p := range s.Points {
		if p.Unix < 5590-200 {
			t.Fatalf("point %v violates Since bound", p.Unix)
		}
	}

	dump = rec.History(HistoryQuery{MaxPoints: 10, Window: time.Minute})
	s = findSeries(t, dump, "xar_test_events_total")
	if len(s.Points) > 10 {
		t.Fatalf("MaxPoints: got %d points, want ≤ 10", len(s.Points))
	}
	// Newest snapshot always survives striding.
	if s.Points[len(s.Points)-1].Unix != 5590 {
		t.Fatalf("newest stamp = %v, want 5590", s.Points[len(s.Points)-1].Unix)
	}
}

func TestFamilyDeltaLabelMatching(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("xar_test_ops_total", "test", L("op", "search"))
	b := reg.Counter("xar_test_ops_total", "test", L("op", "book"))
	rec := NewRecorder(reg, RecorderConfig{Interval: 10 * time.Second, Retention: 5 * time.Minute})
	tickSeries(rec, 6000, 10, 10, func(i int) {
		a.Add(3)
		b.Add(7)
	})

	d, ok := rec.FamilyDelta("xar_test_ops_total", L("op", "search"), 50*time.Second)
	if !ok {
		t.Fatal("no delta for op=search")
	}
	if d.Counter != 15 { // 5 ticks × 3
		t.Fatalf("search delta = %v, want 15", d.Counter)
	}
	d, ok = rec.FamilyDelta("xar_test_ops_total", nil, 50*time.Second)
	if !ok || d.Counter != 50 { // 5 ticks × (3+7)
		t.Fatalf("family-wide delta = %v (ok=%v), want 50", d.Counter, ok)
	}
	if _, ok := rec.FamilyDelta("xar_absent_total", nil, time.Minute); ok {
		t.Fatal("delta for absent family should report !ok")
	}
}

// TestRecorderConcurrent exercises concurrent tick/read under -race.
func TestRecorderConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("xar_test_events_total", "test", nil)
	h := reg.Histogram("xar_test_duration_seconds", "test", DurationBuckets(), nil)
	rec := NewRecorder(reg, RecorderConfig{Interval: time.Second, Retention: 20 * time.Second})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: observe concurrently with ticking.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.001)
				}
			}
		}()
	}
	// Readers: History + FamilyDelta while ticks advance.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = rec.History(HistoryQuery{Window: 5 * time.Second})
					_, _ = rec.FamilyDelta("xar_test_events_total", nil, 5*time.Second)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		rec.TickAt(7000 + float64(i))
	}
	close(stop)
	wg.Wait()

	dump := rec.History(HistoryQuery{Window: 5 * time.Second})
	if dump.Snapshots != 20 {
		t.Fatalf("snapshots = %d, want 20", dump.Snapshots)
	}
}

func TestRecorderStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("xar_test_events_total", "test", nil)
	rec := NewRecorder(reg, RecorderConfig{Interval: 5 * time.Millisecond, Retention: time.Second})
	rec.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if rec.History(HistoryQuery{}).Snapshots >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recorder never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	rec.Stop()
	n := rec.History(HistoryQuery{}).Snapshots
	time.Sleep(20 * time.Millisecond)
	if got := rec.History(HistoryQuery{}).Snapshots; got != n {
		t.Fatalf("recorder ticked after Stop: %d → %d", n, got)
	}
	rec.Stop() // idempotent
}

// TestRecorderStopWaitsExactlyForStart: a recorder that was never started
// has nothing to wait for, and a started one is gone when Stop returns —
// an in-flight tick included.
func TestRecorderStopWaitsExactlyForStart(t *testing.T) {
	idle := NewRecorder(NewRegistry(), RecorderConfig{Interval: time.Hour})
	start := time.Now()
	idle.Stop()
	idle.Stop()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Stop on a recorder that never started took %v", d)
	}

	before := runtime.NumGoroutine()
	rec := NewRecorder(NewRegistry(), RecorderConfig{Interval: time.Millisecond, Retention: time.Second})
	inTick, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var finished atomic.Bool
	rec.OnTick(func() {
		once.Do(func() { close(inTick) })
		<-release
		finished.Store(true)
	})
	rec.Start()
	<-inTick
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	rec.Stop()
	if !finished.Load() {
		t.Fatal("Stop returned while the recorder goroutine was still inside a tick")
	}
	rec.Stop() // idempotent
	var after int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if after = runtime.NumGoroutine(); after <= before {
			return
		}
	}
	t.Fatalf("goroutines leaked past Stop: %d before, %d after", before, after)
}

func TestQuantileFromCumBuckets(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	// 10 obs ≤1, 30 ≤2, 60 ≤4, 100 ≤8 (cumulative), none overflow.
	cum := []uint64{10, 30, 60, 100, 100}
	if got := quantileFromCumBuckets(bounds, cum, 100, 0.5); got < 2 || got > 4 {
		t.Fatalf("p50 = %v, want in (2,4]", got)
	}
	if got := quantileFromCumBuckets(bounds, cum, 100, 0.05); got > 1 {
		t.Fatalf("p5 = %v, want ≤ 1", got)
	}
	if got := quantileFromCumBuckets(bounds, cum, 100, 1.0); got != 8 {
		t.Fatalf("p100 = %v, want 8", got)
	}
	if got := quantileFromCumBuckets(bounds, cum, 0, 0.5); !math.IsNaN(got) {
		t.Fatalf("empty quantile = %v, want NaN", got)
	}
}
