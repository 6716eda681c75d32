package telemetry

import (
	"sync/atomic"
	"testing"
	"time"
)

// sloFixture builds a registry with a latency histogram, a recorder
// (10s ticks), and an SLO engine with tight windows for fast tests.
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
	slo := NewSLOEngine(rec, SLOConfig{
		ShortWindow: time.Minute,
		LongWindow:  5 * time.Minute,
	}, LatencyObjective("search-p95", OpDurationName, L("op", "search"), 0.010, 0.95))
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

func TestSLOHealthyStaysOk(t *testing.T) {
	f := newSLOFixture(t)
	// 36 ticks (6 min) of healthy traffic: all observations at 1ms,
	// objective is p95 < 10ms.
	for i := 0; i < 36; i++ {
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
	for i := 0; i < 36; i++ {
		f.tick(100, 0.001)
	}
	// Spike: every observation breaches 10ms. badFraction → 1.0, budget
	// 0.05 → burn 20 ≥ pageBurn(10); long window accumulates past 1×.
	var paged atomic.Int32
	f.slo.OnPage(func(st SLOStatus) { paged.Add(1) })
	for i := 0; i < 12; i++ { // 2 minutes of pure badness
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
	for i := 0; i < 40; i++ {
		f.tick(500, 0.001)
	}
	if st := f.state(t); st.State != SLOOk {
		t.Fatalf("post-recovery state = %v, want ok (burn short=%v long=%v)", st.State, st.BurnShort, st.BurnLong)
	}
}

func TestSLOWarnOnModerateBurn(t *testing.T) {
	f := newSLOFixture(t)
	for i := 0; i < 36; i++ {
		f.tick(100, 0.001)
	}
	// 15% bad → burn 3: above warnBurn(2), below pageBurn(10).
	for i := 0; i < 12; i++ {
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
	slo := NewSLOEngine(rec, SLOConfig{ShortWindow: time.Minute, LongWindow: 5 * time.Minute},
		RatioObjective("book-conflicts", "booking conflict-retry rate < 10%",
			"xar_book_conflicts_total", nil, "xar_ops_total", L("op", "book"), 0.10))

	now := 20_000.0
	step := func(bad, total uint64) {
		conflicts.Add(bad)
		ops.Add(total)
		rec.TickAt(now)
		now += 10
	}
	for i := 0; i < 36; i++ {
		step(1, 100) // 1% conflicts: healthy
	}
	if st := slo.Statuses()[0]; st.State != SLOOk {
		t.Fatalf("healthy ratio state = %v, want ok (burn=%v)", st.State, st.BurnShort)
	}
	for i := 0; i < 12; i++ {
		step(100, 100) // 100% conflicts: burn 10 ≥ pageBurn
	}
	if st := slo.Statuses()[0]; st.State != SLOPage {
		t.Fatalf("conflict-storm state = %v, want page (burn short=%v long=%v)",
			st.State, st.BurnShort, st.BurnLong)
	}
}
