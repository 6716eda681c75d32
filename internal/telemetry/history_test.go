package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xar/internal/memsize"
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
	if got := rec.Retention(); got != time.Minute {
		t.Fatalf("retention = %v, want 1m (6 slots)", got)
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
	rec.OnTick(func(float64) {
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

// --- oracle ---

// oracleSeries is one instrument the oracle test registered.
type oracleSeries struct {
	name   string
	labels Labels
	kind   Kind
	bounds []float64
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// oracleSample is one series' cumulative values at one tick.
type oracleSample struct {
	v     float64 // counter total or gauge value
	count uint64
	sum   float64
	cum   []uint64 // cumulative bucket counts, +Inf last
}

type oracleTick struct {
	unix float64
	at   map[int]oracleSample // series index → sample; absent before the series existed
}

// recorderOracle keeps every tick in a plain slice, trimmed to the newest
// keep, and answers History and FamilyDelta by brute force over it.
type recorderOracle struct {
	interval time.Duration
	keep     int
	famOrder map[string]int
	series   []*oracleSeries // in the order the recorder first snapshots them
	pending  []*oracleSeries // registered since the last tick
	ticks    []oracleTick
}

func (o *recorderOracle) register(s *oracleSeries) {
	if _, ok := o.famOrder[s.name]; !ok {
		o.famOrder[s.name] = len(o.famOrder)
	}
	o.pending = append(o.pending, s)
}

func (o *recorderOracle) tick(unix float64) {
	// A tick walks families in registration order, then each family's
	// series in registration order.
	sort.SliceStable(o.pending, func(i, j int) bool {
		return o.famOrder[o.pending[i].name] < o.famOrder[o.pending[j].name]
	})
	o.series = append(o.series, o.pending...)
	o.pending = nil
	t := oracleTick{unix: unix, at: map[int]oracleSample{}}
	for i, s := range o.series {
		var smp oracleSample
		switch s.kind {
		case KindCounter:
			smp.v = float64(s.c.Value())
		case KindGauge:
			smp.v = s.g.Value()
		case KindHistogram:
			smp.count, smp.sum = s.h.Count(), s.h.Sum()
			total := uint64(0)
			for _, c := range s.h.BucketCounts() {
				total += c
				smp.cum = append(smp.cum, total)
			}
		}
		t.at[i] = smp
	}
	o.ticks = append(o.ticks, t)
	if len(o.ticks) > o.keep {
		o.ticks = o.ticks[len(o.ticks)-o.keep:]
	}
}

// first returns the oldest retained tick holding series i, or -1.
func (o *recorderOracle) first(i int) int {
	for k, t := range o.ticks {
		if _, ok := t.at[i]; ok {
			return k
		}
	}
	return -1
}

// anchor returns the tick a delta ending at tick p of series i starts
// from: the newest earlier tick at least win seconds older, else the
// oldest earlier one holding the series; false when there is none or the
// pair spans no time.
func (o *recorderOracle) anchor(i, p int, win float64) (int, bool) {
	a := -1
	for k := 0; k < p; k++ {
		if _, ok := o.ticks[k].at[i]; !ok {
			continue
		}
		if a < 0 || o.ticks[p].unix-o.ticks[k].unix >= win {
			a = k
		}
	}
	return a, a >= 0 && o.ticks[p].unix-o.ticks[a].unix > 0
}

func (o *recorderOracle) point(i, p int, win float64) HistoryPoint {
	s, cur := o.series[i], o.ticks[p].at[i]
	pt := HistoryPoint{Unix: o.ticks[p].unix}
	if s.kind == KindGauge {
		v := cur.v
		pt.Value = &v
		return pt
	}
	a, ok := o.anchor(i, p, win)
	if !ok {
		return pt
	}
	old, dt := o.ticks[a].at[i], o.ticks[p].unix-o.ticks[a].unix
	switch s.kind {
	case KindCounter:
		rate := math.Max(0, cur.v-old.v) / dt
		pt.Rate = &rate
	case KindHistogram:
		dc := cur.count - old.count
		rate := float64(dc) / dt
		pt.Rate, pt.Count = &rate, &dc
		if dc > 0 {
			delta := make([]uint64, len(cur.cum))
			for b := range delta {
				delta[b] = cur.cum[b] - old.cum[b]
			}
			q := func(x float64) *float64 {
				v := quantileFromCumBuckets(s.bounds, delta, dc, x)
				return &v
			}
			pt.P50, pt.P95, pt.P99 = q(0.50), q(0.95), q(0.99)
		}
	}
	return pt
}

func (o *recorderOracle) history(q HistoryQuery) HistoryDump {
	if q.Window <= 0 {
		q.Window = DefaultHistoryWindow
	}
	d := HistoryDump{
		IntervalSeconds:  o.interval.Seconds(),
		RetentionSeconds: (time.Duration(o.keep) * o.interval).Seconds(),
		WindowSeconds:    q.Window.Seconds(),
		Snapshots:        len(o.ticks),
	}
	last := len(o.ticks) - 1
	if last < 0 {
		return d
	}
	first := 0
	for q.Since > 0 && o.ticks[first].unix < o.ticks[last].unix-q.Since.Seconds() {
		first++
	}
	stride := 1
	if n := last + 1 - first; q.MaxPoints > 0 && n > q.MaxPoints {
		stride = (n + q.MaxPoints - 1) / q.MaxPoints
	}
	for i, s := range o.series {
		from := o.first(i)
		if (q.Name != "" && s.name != q.Name) || from < 0 {
			continue
		}
		hs := HistorySeries{Name: s.name, Type: s.kind.String()}
		if len(s.labels) > 0 {
			hs.Labels = map[string]string{}
			for _, l := range s.labels {
				hs.Labels[l.Name] = l.Value
			}
		}
		for p := last; p >= first && p >= from; p -= stride {
			hs.Points = append([]HistoryPoint{o.point(i, p, q.Window.Seconds())}, hs.Points...)
		}
		d.Series = append(d.Series, hs)
	}
	return d
}

func (o *recorderOracle) familyDelta(name string, match Labels, window time.Duration) (FamilyDelta, bool) {
	var out FamilyDelta
	found := false
	p := len(o.ticks) - 1
	for i, s := range o.series {
		matched := s.name == name
		for _, m := range match {
			matched = matched && slices.Contains(s.labels, m)
		}
		if !matched || p < 0 {
			continue
		}
		a, ok := o.anchor(i, p, window.Seconds())
		if !ok {
			continue
		}
		found = true
		cur, old := o.ticks[p].at[i], o.ticks[a].at[i]
		out.Dt = math.Max(out.Dt, o.ticks[p].unix-o.ticks[a].unix)
		if s.kind != KindHistogram {
			out.Counter += math.Max(0, cur.v-old.v)
			continue
		}
		dc := cur.count - old.count
		out.Count += dc
		out.Counter += float64(dc)
		out.Sum += cur.sum - old.sum
		if out.Buckets == nil {
			out.Bounds, out.Buckets = s.bounds, make([]uint64, len(cur.cum))
		}
		if len(out.Buckets) == len(cur.cum) {
			for b := range cur.cum {
				out.Buckets[b] += cur.cum[b] - old.cum[b]
			}
		}
	}
	return out, found
}

// TestRecorderAgainstOracle drives recorders of several shapes with
// seeded random counter, gauge and histogram updates — series born
// mid-flight, ticks far past wraparound, repeated stamps — and compares
// every History and FamilyDelta answer, field for field, against a plain
// slice that keeps every tick and trims to the newest Retention/Interval.
func TestRecorderAgainstOracle(t *testing.T) {
	shapes := []RecorderConfig{
		{Interval: 10 * time.Second, Retention: time.Minute},      // 6 slots
		{Interval: 10 * time.Second, Retention: 10 * time.Second}, // floored to 2 slots
		{Interval: time.Second, Retention: 3 * time.Second},
		{Interval: 7 * time.Second, Retention: 100 * time.Second}, // 14 slots
	}
	families := []struct {
		name   string
		kind   Kind
		bounds []float64
	}{
		{"xar_oracle_ops_total", KindCounter, nil},
		{"xar_oracle_depth", KindGauge, nil},
		{"xar_oracle_seconds", KindHistogram, DurationBuckets()},
		{"xar_oracle_bytes", KindHistogram, []float64{1, 10, 100, 1000}},
	}
	ops := []string{"a", "b", "c"}
	for si, cfg := range shapes {
		rng := rand.New(rand.NewPCG(uint64(si), 38))
		reg := NewRegistry()
		rec := NewRecorder(reg, cfg)
		o := &recorderOracle{interval: cfg.Interval, keep: max(2, int(cfg.Retention/cfg.Interval)), famOrder: map[string]int{}}
		if got, want := rec.Retention(), time.Duration(o.keep)*cfg.Interval; got != want {
			t.Fatalf("shape %d: Retention = %v, want %v", si, got, want)
		}
		var all []*oracleSeries
		register := func() {
			f := families[rng.IntN(len(families))]
			s := &oracleSeries{name: f.name, kind: f.kind, bounds: f.bounds,
				labels: L("op", ops[rng.IntN(len(ops))], "id", fmt.Sprint(len(all)))}
			switch f.kind {
			case KindCounter:
				s.c = reg.Counter(f.name, "oracle", s.labels)
			case KindGauge:
				s.g = reg.Gauge(f.name, "oracle", s.labels)
			case KindHistogram:
				s.h = reg.Histogram(f.name, "oracle", f.bounds, s.labels)
			}
			all = append(all, s)
			o.register(s)
		}
		register()
		now := 1e6
		slots := o.keep
		for step := 0; step < 40*slots; step++ {
			if rng.IntN(12) == 0 && len(all) < 24 {
				register()
			}
			for _, s := range all {
				switch s.kind {
				case KindCounter:
					s.c.Add(uint64(rng.IntN(20)))
				case KindGauge:
					s.g.Set(rng.NormFloat64() * 100)
				case KindHistogram:
					for n := rng.IntN(6); n > 0; n-- {
						if s.name == "xar_oracle_bytes" {
							s.h.Observe(rng.Float64() * 2000) // some land in +Inf
						} else {
							s.h.Observe(math.Exp(rng.NormFloat64()*2 - 5))
						}
					}
				}
			}
			switch r := rng.IntN(10); {
			case r == 0: // repeated stamp: every delta ending here spans dt == 0
			case r < 7:
				now += cfg.Interval.Seconds()
			default:
				now += cfg.Interval.Seconds() * (0.3 + 2*rng.Float64())
			}
			rec.TickAt(now)
			o.tick(now)

			span := 3 * float64(cfg.Retention)
			// window is a whole number of intervals half the time, so
			// snapshot pairs land exactly on the window's edge.
			window := func() time.Duration {
				if rng.IntN(2) == 0 {
					return time.Duration(1+rng.IntN(slots+1)) * cfg.Interval
				}
				return time.Duration(rng.Float64() * span)
			}
			for k := 0; k < 2; k++ {
				q := HistoryQuery{}
				if rng.IntN(3) > 0 {
					q.Window = window()
				}
				if rng.IntN(2) == 0 {
					q.Since = time.Duration(rng.Float64() * span / 2)
				}
				if rng.IntN(2) == 0 {
					q.MaxPoints = 1 + rng.IntN(slots+2)
				}
				switch rng.IntN(3) {
				case 0:
					q.Name = families[rng.IntN(len(families))].name
				case 1:
					q.Name = "xar_oracle_absent"
				}
				if got, want := rec.History(q), o.history(q); !reflect.DeepEqual(got, want) {
					gj, _ := json.Marshal(got)
					wj, _ := json.Marshal(want)
					t.Fatalf("shape %d step %d: History(%+v)\n got %s\nwant %s", si, step, q, gj, wj)
				}
			}
			for k := 0; k < 3; k++ {
				name := families[rng.IntN(len(families))].name
				var match Labels
				switch rng.IntN(4) {
				case 1:
					match = L("op", ops[rng.IntN(len(ops))])
				case 2:
					match = L("op", ops[rng.IntN(len(ops))], "id", fmt.Sprint(rng.IntN(len(all))))
				case 3:
					match = L("op", "z")
				}
				win := window()
				got, gotOK := rec.FamilyDelta(name, match, win)
				want, wantOK := o.familyDelta(name, match, win)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("shape %d step %d: FamilyDelta(%s, %v, %v) = %+v, %v; want %+v, %v",
						si, step, name, match, win, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestRecorderMemoryFixedAcrossWraps: once the ring has gone round, ticks
// reuse what it holds — three wraps measure within 10% of one.
func TestRecorderMemoryFixedAcrossWraps(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("xar_test_events_total", "test", nil)
	g := reg.Gauge("xar_test_depth", "test", nil)
	h := reg.Histogram("xar_test_duration_seconds", "test", DurationBuckets(), L("op", "search"))
	rec := NewRecorder(reg, RecorderConfig{Interval: time.Second, Retention: time.Minute})
	slots := int(rec.Retention() / rec.interval)
	now := 0.0
	tick := func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
			g.Set(float64(i))
			h.Observe(0.001 * float64(i%50))
			now++
			rec.TickAt(now)
		}
	}
	measure := func() uint64 {
		a := memsize.NewAccumulator()
		rec.MeasureMem(a)
		return a.Total()
	}
	tick(slots)
	one := measure()
	tick(2 * slots)
	if three := measure(); three*10 > one*11 || three*10 < one*9 {
		t.Fatalf("recorder holds %d bytes after three wraps, %d after one", three, one)
	}
}
