package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Sum() != 0 {
		t.Fatal("zero-value sample must be empty")
	}
	for _, v := range []float64{s.Mean(), s.Min(), s.Max(), s.Percentile(50)} {
		if !math.IsNaN(v) {
			t.Fatalf("empty-sample statistic = %v, want NaN", v)
		}
	}
	if s.CDF(10) != 0 {
		t.Fatal("empty-sample CDF must be 0")
	}
	if s.Summary("ms") != "n=0" {
		t.Fatalf("empty summary = %q", s.Summary("ms"))
	}
}

func TestBasicStatistics(t *testing.T) {
	var s Sample
	for _, x := range []float64{4, 2, 8, 6} {
		s.Add(x)
	}
	if s.N() != 4 || s.Sum() != 20 || s.Mean() != 5 {
		t.Fatalf("n=%d sum=%v mean=%v", s.N(), s.Sum(), s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
}

func TestAddAfterSortKeepsCorrectness(t *testing.T) {
	var s Sample
	s.Add(5)
	_ = s.Min() // forces a sort
	s.Add(1)    // must invalidate sorted flag
	if s.Min() != 1 {
		t.Fatalf("min after late add = %v, want 1", s.Min())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {-5, 1}, {200, 100},
	}
	for _, tc := range cases {
		if got := s.Percentile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPercentileMonotonic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(r.NormFloat64() * 10)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := s.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestCDFAgainstBruteForce(t *testing.T) {
	f := func(raw []float64, probe float64) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) {
				return true
			}
			s.Add(x)
		}
		count := 0
		for _, x := range raw {
			if x <= probe {
				count++
			}
		}
		want := float64(count) / float64(len(raw))
		return math.Abs(s.CDF(probe)-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFBoundary(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 2, 3} {
		s.Add(x)
	}
	if got := s.CDF(2); got != 0.75 {
		t.Fatalf("CDF(2) = %v, want 0.75 (inclusive)", got)
	}
	if got := s.CDF(0.5); got != 0 {
		t.Fatalf("CDF(0.5) = %v, want 0", got)
	}
	if got := s.CDF(3); got != 1 {
		t.Fatalf("CDF(3) = %v, want 1", got)
	}
}

func TestPercentileMatchesSortedIndex(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var s Sample
	raw := make([]float64, 501)
	for i := range raw {
		raw[i] = r.Float64() * 1000
		s.Add(raw[i])
	}
	sort.Float64s(raw)
	// With n-1 spacing, p50 of 501 points is exactly raw[250].
	if got := s.Percentile(50); got != raw[250] {
		t.Fatalf("p50 = %v, want %v", got, raw[250])
	}
}

func TestAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Microsecond)
	if got := s.Max(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("1.5ms recorded as %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("eps", "clusters", "time")
	tb.AddRow(0.5, 4921, 12*time.Millisecond)
	tb.AddRow(2.0, 713, 350*time.Microsecond)
	out := tb.String()
	if !strings.Contains(out, "eps") || !strings.Contains(out, "clusters") {
		t.Fatalf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "4921") {
		t.Fatalf("missing int cell:\n%s", out)
	}
	if !strings.Contains(out, "12.000ms") || !strings.Contains(out, "0.350ms") {
		t.Fatalf("duration formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+rule+2 rows, got %d lines", len(lines))
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), "-"},
		{0.001, "1.00e-03"},
		{12345, "12345"},
		{3.14159, "3.142"},
		{0, "0.000"},
	}
	for _, tc := range cases {
		if got := formatFloat(tc.in); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestHistogram(t *testing.T) {
	var s Sample
	for i := 0; i < 100; i++ {
		s.Add(float64(i % 10))
	}
	h := s.Histogram(10, 40)
	if strings.Count(h, "\n") != 10 {
		t.Fatalf("want 10 histogram lines:\n%s", h)
	}
	var e Sample
	if e.Histogram(10, 40) != "(empty)\n" {
		t.Fatal("empty histogram")
	}
	var one Sample
	one.Add(5)
	if !strings.Contains(one.Histogram(4, 10), "#") {
		t.Fatal("single-value histogram should still draw a bar")
	}
}

func TestSummaryFormat(t *testing.T) {
	var s Sample
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	sum := s.Summary("ms")
	for _, frag := range []string{"n=10", "mean=5.500ms", "max=10.000ms"} {
		if !strings.Contains(sum, frag) {
			t.Fatalf("summary %q missing %q", sum, frag)
		}
	}
}
