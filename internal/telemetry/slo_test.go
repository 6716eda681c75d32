package telemetry

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// sloFixture builds a registry with a latency histogram, a recorder
// (10s ticks, an hour retained), and an SLO engine over it: its 5m short
// window spans 30 ticks, its 30m long window 180.
type sloFixture struct {
	reg *Registry
	h   *Histogram
	rec *Recorder
	slo *SLOEngine
	now float64
}

func newSLOFixture(t *testing.T) *sloFixture {
	t.Helper()
	reg := NewRegistry()
	h := reg.Histogram(OpDurationName, "op latency", DurationBuckets(), L("op", "search"))
	rec := NewRecorder(reg, RecorderConfig{Interval: 10 * time.Second, Retention: time.Hour})
	slo := NewSLOEngine(rec, LatencyObjective("search-p95", OpDurationName, L("op", "search"), 0.010, 0.95))
	return &sloFixture{reg: reg, h: h, rec: rec, slo: slo, now: 10_000}
}

// tick advances simulated time one 10s step after recording n
// observations of v seconds.
func (f *sloFixture) tick(n int, v float64) {
	for i := 0; i < n; i++ {
		f.h.Observe(v)
	}
	f.rec.TickAt(f.now)
	f.now += 10
}

func (f *sloFixture) state(t *testing.T) SLOStatus {
	t.Helper()
	sts := f.slo.Statuses()
	if len(sts) != 1 {
		t.Fatalf("statuses = %d, want 1", len(sts))
	}
	return sts[0]
}

// TestLatencyObjectiveThreshold: a threshold that is not positive and
// finite is refused when the objective is declared. NaN, 0 and −5 ms
// would snap to the first bucket bound (10 µs) and page on healthy
// 100 µs searches, which a 5 ms threshold reads as ok.
func TestLatencyObjectiveThreshold(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold float64
		valid     bool
	}{
		{"5ms", 0.005, true},
		{"NaN", math.NaN(), false},
		{"zero", 0, false},
		{"-5ms", -0.005, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var obj Objective
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				obj = LatencyObjective("search-p95", OpDurationName, L("op", "search"), tc.threshold, 0.95)
				return false
			}()
			if panicked != !tc.valid {
				t.Fatalf("LatencyObjective(threshold %v) panicked = %v, want %v", tc.threshold, panicked, !tc.valid)
			}
			if !tc.valid {
				return
			}
			f := newSLOFixture(t)
			f.slo = NewSLOEngine(f.rec, obj)
			for i := 0; i < 40; i++ {
				f.tick(100, 0.0001)
			}
			if st := f.state(t); st.State != SLOOk {
				t.Fatalf("state = %v, want ok (burn short=%v)", st.State, st.BurnShort)
			}
		})
	}
}

func TestSLOHealthyStaysOk(t *testing.T) {
	f := newSLOFixture(t)
	// 216 ticks (36 min) of healthy traffic: all observations at 1ms,
	// objective is p95 < 10ms.
	for i := 0; i < 216; i++ {
		f.tick(100, 0.001)
	}
	st := f.state(t)
	if st.State != SLOOk {
		t.Fatalf("state = %v, want ok (burn short=%v long=%v)", st.State, st.BurnShort, st.BurnLong)
	}
	if st.SamplesShort == 0 {
		t.Fatal("no samples seen in short window")
	}
	if f.slo.WorstState() != SLOOk {
		t.Fatalf("worst = %v, want ok", f.slo.WorstState())
	}
}

func TestSLOPageOnLatencySpike(t *testing.T) {
	f := newSLOFixture(t)
	// Healthy baseline long enough to fill the long window.
	for i := 0; i < 216; i++ {
		f.tick(100, 0.001)
	}
	// Spike: every observation breaches 10ms. badFraction → 1.0, budget
	// 0.05 → burn 20 ≥ pageBurn(10); long window accumulates past 1×.
	var paged atomic.Int32
	f.slo.OnPage(func(st SLOStatus) { paged.Add(1) })
	for i := 0; i < 60; i++ { // 10 minutes of pure badness
		f.tick(100, 0.5)
	}
	st := f.state(t)
	if st.State != SLOPage {
		t.Fatalf("state = %v, want page (burn short=%v long=%v)", st.State, st.BurnShort, st.BurnLong)
	}
	if paged.Load() != 1 {
		t.Fatalf("page hook fired %d times, want exactly 1 (transition-edge only)", paged.Load())
	}
	if st.SinceUnix == 0 {
		t.Fatal("SinceUnix not stamped on transition")
	}
	if f.slo.WorstState() != SLOPage {
		t.Fatalf("worst = %v, want page", f.slo.WorstState())
	}

	// Recovery: healthy traffic flushes the short window first (warn),
	// then the long window (ok).
	for i := 0; i < 240; i++ {
		f.tick(500, 0.001)
	}
	if st := f.state(t); st.State != SLOOk {
		t.Fatalf("post-recovery state = %v, want ok (burn short=%v long=%v)", st.State, st.BurnShort, st.BurnLong)
	}
}

func TestSLOWarnOnModerateBurn(t *testing.T) {
	f := newSLOFixture(t)
	for i := 0; i < 216; i++ {
		f.tick(100, 0.001)
	}
	// 15% bad → burn 3: above warnBurn(2), below pageBurn(10).
	for i := 0; i < 60; i++ {
		f.tick(85, 0.001)
		f.tick(15, 0.5)
	}
	st := f.state(t)
	if st.State != SLOWarn {
		t.Fatalf("state = %v, want warn (burn short=%v long=%v)", st.State, st.BurnShort, st.BurnLong)
	}
}

func TestSLONoDataReportsOk(t *testing.T) {
	f := newSLOFixture(t)
	for i := 0; i < 10; i++ {
		f.tick(0, 0) // ticks with zero traffic
	}
	st := f.state(t)
	if st.State != SLOOk {
		t.Fatalf("state with no data = %v, want ok", st.State)
	}
	if st.SamplesShort != 0 {
		t.Fatalf("samples = %v, want 0", st.SamplesShort)
	}
}

func TestRatioObjective(t *testing.T) {
	reg := NewRegistry()
	conflicts := reg.Counter("xar_book_conflicts_total", "t", nil)
	ops := reg.Counter("xar_ops_total", "t", L("op", "book"))
	rec := NewRecorder(reg, RecorderConfig{Interval: 10 * time.Second, Retention: time.Hour})
	slo := NewSLOEngine(rec,
		RatioObjective("book-conflicts", "booking conflict-retry rate < 10%",
			"xar_book_conflicts_total", nil, "xar_ops_total", L("op", "book"), 0.10))

	now := 20_000.0
	step := func(bad, total uint64) {
		conflicts.Add(bad)
		ops.Add(total)
		rec.TickAt(now)
		now += 10
	}
	for i := 0; i < 216; i++ {
		step(1, 100) // 1% conflicts: healthy
	}
	if st := slo.Statuses()[0]; st.State != SLOOk {
		t.Fatalf("healthy ratio state = %v, want ok (burn=%v)", st.State, st.BurnShort)
	}
	for i := 0; i < 60; i++ {
		step(100, 100) // 100% conflicts: burn 10 ≥ pageBurn
	}
	if st := slo.Statuses()[0]; st.State != SLOPage {
		t.Fatalf("conflict-storm state = %v, want page (burn short=%v long=%v)",
			st.State, st.BurnShort, st.BurnLong)
	}
}
