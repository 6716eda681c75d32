package telemetry

import (
	"bufio"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("xar_test_total", "test counter", L("kind", "a"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Idempotent registration returns the same instrument.
	if again := r.Counter("xar_test_total", "test counter", L("kind", "a")); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("xar_test_gauge", "test gauge", nil)
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("xar_mismatch", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter/gauge kind mismatch")
		}
	}()
	r.Gauge("xar_mismatch", "", nil)
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(10e-6, 10, 5)
	if len(b) < 25 {
		t.Fatalf("unexpectedly few buckets: %d", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
	if b[0] != 10e-6 || math.Abs(b[len(b)-1]-10) > 1e-9 {
		t.Fatalf("bounds span [%v, %v]", b[0], b[len(b)-1])
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %v", got)
	}
	// le=1 catches 0.5 and the boundary value 1 (le semantics).
	want := []uint64{2, 1, 1, 0, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if q := h.Quantile(0.5); q <= 0 || q > 2 {
		t.Fatalf("median estimate %v outside (0, 2]", q)
	}
	if !math.IsNaN(NewHistogram([]float64{1}).Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	h.ObserveDuration(2 * time.Millisecond)
	if h.Count() != 1 || math.Abs(h.Sum()-0.002) > 1e-12 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestPrometheusExposition checks the rendered text is structurally
// valid: TYPE lines present, histogram buckets cumulative and monotone,
// +Inf bucket equal to _count, label values escaped.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("xar_requests_total", "total requests", L("route", `/v1/"x"`)).Add(3)
	r.Gauge("xar_inflight", "in-flight requests", nil).Set(2)
	h := OpDuration(r, "search")
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 1e-4)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE xar_requests_total counter",
		"# TYPE xar_inflight gauge",
		"# TYPE xar_op_duration_seconds histogram",
		`xar_requests_total{route="/v1/\"x\""} 3`,
		"xar_inflight 2",
		`xar_op_duration_seconds_count{op="search"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}

	// Parse the bucket series: cumulative, monotone, ends at +Inf == count.
	var last uint64
	var infSeen bool
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `xar_op_duration_seconds_bucket{op="search",le="`) {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Fatalf("bad bucket line %q", line)
		}
		n, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket count in %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not monotone: %d after %d (%s)", n, last, line)
		}
		last = n
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if n != 100 {
				t.Fatalf("+Inf bucket %d != count 100", n)
			}
		}
	}
	if !infSeen {
		t.Fatal("no +Inf bucket emitted")
	}
}

// TestHistogramConcurrent hammers one histogram from 8 goroutines; run
// under -race this is the data-race check the issue asks for, and the
// final count/sum must be exact regardless.
func TestHistogramConcurrent(t *testing.T) {
	const goroutines, perG = 8, 20000
	h := NewHistogram(DurationBuckets())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) * 1e-7)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
	var cells uint64
	for _, c := range h.BucketCounts() {
		cells += c
	}
	if cells != goroutines*perG {
		t.Fatalf("cell total = %d, want %d", cells, goroutines*perG)
	}
	// Exact expected sum: sum of 0..N-1 times 1e-7.
	n := float64(goroutines * perG)
	want := n * (n - 1) / 2 * 1e-7
	if math.Abs(h.Sum()-want) > want*1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_cycles_total",
		"go_gc_pauses_seconds_bucket", "go_sched_latencies_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("runtime metrics missing %s", want)
		}
	}
	// Goroutines is live via GaugeFunc and must be >= 1.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "go_goroutines ") {
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil || v < 1 {
				t.Fatalf("go_goroutines = %q (%v)", line, err)
			}
		}
	}
}

// TestRuntimeMetricsGCPauses forces GC cycles across scrapes and checks
// the delta-imported pause histogram and cycle counter advance.
func TestRuntimeMetricsGCPauses(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	r.runScrapeHooks() // baseline read: imports nothing
	pauses := r.Histogram("go_gc_pauses_seconds", "", LogBuckets(100e-9, 1, 5), nil)
	cycles := r.Counter("go_gc_cycles_total", "", nil)
	before := pauses.Count()
	cyclesBefore := cycles.Value()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	r.runScrapeHooks()
	if pauses.Count() <= before {
		t.Fatalf("pause histogram did not grow: %d → %d", before, pauses.Count())
	}
	if cycles.Value() < cyclesBefore+3 {
		t.Fatalf("gc cycles counter = %d, want ≥ %d", cycles.Value(), cyclesBefore+3)
	}
	// Pauses must land at plausible magnitudes (< 1s each).
	if q := pauses.Quantile(0.99); q > 1 {
		t.Fatalf("gc pause p99 = %v s, implausible", q)
	}
}

func TestHistogramAddSample(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.AddSample(1.5, 10)
	h.AddSample(100, 3) // overflow cell
	h.AddSample(0.5, 0) // no-op
	if h.Count() != 13 {
		t.Fatalf("count = %d, want 13", h.Count())
	}
	if want := 1.5*10 + 100*3; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	bc := h.BucketCounts()
	if bc[1] != 10 || bc[3] != 3 {
		t.Fatalf("bucket counts = %v, want [0 10 0 3]", bc)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DurationBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram(DurationBuckets())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(1e-4)
		}
	})
}
