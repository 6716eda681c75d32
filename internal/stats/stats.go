// Package stats provides the small statistics toolkit used by the
// simulation and benchmark harness: online accumulators, percentiles,
// CDF evaluation and fixed-width histogram/table rendering for the
// figure-reproduction output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample accumulates float64 observations. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sum    float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sum += x
	s.sorted = false
}

// AddDuration records a duration in milliseconds, the unit the paper's
// latency figures use.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.xs))
}

// Min returns the smallest observation, or NaN if empty.
func (s *Sample) Min() float64 {
	s.ensureSorted()
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.xs[0]
}

// Max returns the largest observation, or NaN if empty.
func (s *Sample) Max() float64 {
	s.ensureSorted()
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.xs[len(s.xs)-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics. NaN for an empty sample; p is
// clamped to [0,100].
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// CDF returns the empirical fraction of observations ≤ x. Zero for an
// empty sample.
func (s *Sample) CDF(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	// First index with value > x.
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// Summary renders "n=… mean=… p50=… p95=… p99=… max=…" for log lines.
func (s *Sample) Summary(unit string) string {
	if len(s.xs) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3f%s p50=%.3f%s p95=%.3f%s p99=%.3f%s max=%.3f%s",
		s.N(), s.Mean(), unit, s.Percentile(50), unit,
		s.Percentile(95), unit, s.Percentile(99), unit, s.Max(), unit)
}

// Table is a simple fixed-width text table used by cmd/xarbench to print
// the rows/series corresponding to each paper figure.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fms", float64(v)/float64(time.Millisecond))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Histogram renders an ASCII histogram of the sample over nBins equal
// bins, used for the CDF-style figures.
func (s *Sample) Histogram(nBins int, width int) string {
	if len(s.xs) == 0 || nBins <= 0 {
		return "(empty)\n"
	}
	s.ensureSorted()
	lo, hi := s.xs[0], s.xs[len(s.xs)-1]
	if hi == lo {
		hi = lo + 1
	}
	counts := make([]int, nBins)
	for _, x := range s.xs {
		b := int(float64(nBins) * (x - lo) / (hi - lo))
		if b >= nBins {
			b = nBins - 1
		}
		counts[b]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	var sb strings.Builder
	for i, c := range counts {
		binLo := lo + float64(i)*(hi-lo)/float64(nBins)
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&sb, "%12.3f | %-*s %d\n", binLo, width, strings.Repeat("#", bar), c)
	}
	return sb.String()
}
