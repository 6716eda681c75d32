// Package perftrend is the performance-regression sentinel: it ingests
// every committed BENCH_*.json artifact into one longitudinal
// trajectory (BENCH_trajectory.json, schema xar-bench-trend/v1) of
// per-benchmark series keyed by metric, each with an explicit noise
// band, and gates CI on every observation of every banded series.
//
// The committed BENCH files are point-in-time artifacts. The bands
// here restate their prose claims ("1 alloc", "0 harness errors") as
// machine-checked ranges. Work counts are exact; absolute
// times get loose roofs, because identical code drifts ±20% in ns/op
// between runs on the shared hosts the files were measured on. No band
// judges observer overhead: that is TestObserverOverheadSmoke's live
// fence, not a committed number.
//
// A BENCH file whose shape no longer matches an extractor degrades to
// a warning, not a gate failure: the schema tests in bench_schema_test
// own shape compatibility, the sentinel owns the values. Unknown
// BENCH_*.json files likewise warn so a new PR's artifact is noticed
// but never blocks the author before they add an extractor.
package perftrend

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Schema tags BENCH_trajectory.json so downstream tooling can detect
// incompatible rewrites.
const Schema = "xar-bench-trend/v1"

// Directions a metric can be judged in.
const (
	// LowerBetter metrics (latency) gate on Max.
	LowerBetter = "lower_better"
	// HigherBetter metrics (speedups, capacity) gate on Min.
	HigherBetter = "higher_better"
	// Exact metrics (correctness counts) gate on Min == Max.
	Exact = "exact"
)

// Point is one observation of a metric: a committed BENCH artifact's
// value, or a fresh smoke-run measurement appended at gate time.
type Point struct {
	// Source is the BENCH file the value came from, or "smoke".
	Source string `json:"source"`
	// Date is the artifact's recorded date (empty for tool-emitted
	// files that carry none).
	Date  string  `json:"date,omitempty"`
	Value float64 `json:"value"`
}

// Series is one tracked metric's trajectory and its acceptance band.
// Every point is judged against the band; nil band edges are unbounded
// on that side.
type Series struct {
	Unit      string   `json:"unit"`
	Direction string   `json:"direction"`
	Min       *float64 `json:"min,omitempty"`
	Max       *float64 `json:"max,omitempty"`
	Points    []Point  `json:"points"`
}

// Trajectory is the BENCH_trajectory.json document.
type Trajectory struct {
	Schema string `json:"schema"`
	// Benchmarks maps benchmark name → metric name → series.
	Benchmarks map[string]map[string]*Series `json:"benchmarks"`
	// Warnings records what the collection could not use: unknown
	// BENCH files (no bands declared for them) and extractors whose
	// path vanished from a known file. Warnings never gate.
	Warnings []string `json:"warnings,omitempty"`
}

// extractor declares one tracked metric: where its value lives in
// which BENCH file, and the band its observations must stay in.
// Several extractors may feed the same (bench, metric) series from
// different files — that is what makes the series longitudinal.
type extractor struct {
	file   string
	bench  string
	metric string
	unit   string
	dir    string
	min    *float64
	max    *float64
	get    func(doc any) (float64, bool)
}

func lim(v float64) *float64 { return &v }

// path returns a getter that walks nested JSON objects by key.
func path(keys ...string) func(any) (float64, bool) {
	return func(doc any) (float64, bool) { return num(doc, keys...) }
}

func num(doc any, keys ...string) (float64, bool) {
	cur := doc
	for _, k := range keys {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[k]; !ok {
			return 0, false
		}
	}
	f, ok := cur.(float64)
	return f, ok
}

// steps returns the BENCH_scale.json steps array.
func steps(doc any) []any {
	m, ok := doc.(map[string]any)
	if !ok {
		return nil
	}
	s, _ := m["steps"].([]any)
	return s
}

// extractors is the sentinel's whole knowledge of the committed BENCH
// corpus, in chronological file order. Band rationale sits next to each
// band.
var extractors = []extractor{
	// --- BENCH_parallel.json (concurrent-engine PR) ----------------
	// The serial engine vs the growth seed's measurement:
	// the one absolute baseline that predates all observability work.
	{file: "BENCH_parallel.json", bench: "BenchmarkSearchThroughput", metric: "serial_ns_per_op",
		unit: "ns/op", dir: LowerBetter, max: lim(1200),
		get: path("go_bench", "serial_regression_check", "BenchmarkSearchThroughput_ns_per_op")},
	{file: "BENCH_parallel.json", bench: "BenchmarkMixedWorkloadParallel", metric: "procs8_ops_per_s",
		unit: "ops/s", dir: HigherBetter, min: lim(30000),
		get: path("go_bench", "BenchmarkMixedWorkloadParallel", "procs8", "ops_per_s")},

	// --- BENCH_scale.json (load-harness PR, tool-emitted) ----------
	// Only the lowest-rate step's client p99 is gated — it measures
	// uncontended service latency; the knee steps measure where this
	// hardware saturates and move with it (same rule as load.Gate).
	{file: "BENCH_scale.json", bench: "xarload sweep", metric: "lowest_rate_client_p99_ms",
		unit: "ms", dir: LowerBetter, max: lim(50),
		get: func(doc any) (float64, bool) {
			s := steps(doc)
			if len(s) == 0 {
				return 0, false
			}
			return num(s[0], "client_latency", "p99_ms")
		}},
	{file: "BENCH_scale.json", bench: "xarload sweep", metric: "rides_per_gb_last_step",
		unit: "rides/GB", dir: HigherBetter, min: lim(50000),
		get: func(doc any) (float64, bool) {
			s := steps(doc)
			if len(s) == 0 {
				return 0, false
			}
			return num(s[len(s)-1], "memory", "rides_per_gb")
		}},
	{file: "BENCH_scale.json", bench: "xarload sweep", metric: "harness_errors_total",
		unit: "count", dir: Exact, min: lim(0), max: lim(0),
		get: func(doc any) (float64, bool) {
			s := steps(doc)
			if len(s) == 0 {
				return 0, false
			}
			var total float64
			for _, st := range s {
				v, ok := num(st, "errors")
				if !ok {
					return 0, false
				}
				total += v
			}
			return total, true
		}},

	// --- BENCH_search.json (allocation-free candidate pipeline) ----
	// The dense search's allocations do not grow with candidates or
	// matches; the count is deterministic (one: the slice the caller
	// owns), so the band is exact and the `xarperf -smoke` point must
	// reproduce it.
	{file: "BENCH_search.json", bench: "BenchmarkSearchDense", metric: "search_dense_allocs_per_op",
		unit: "allocs/op", dir: Exact, min: lim(1), max: lim(1),
		get: path("BenchmarkSearchDense", "columns", "allocs_per_op")},

	// Candidates per search over a 2 000-trip replay: an exact count (53.99 with full rides listed).
	{file: "BENCH_search.json", bench: "BenchmarkReplayCandidates", metric: "replay_candidates_per_search",
		unit: "candidates/search", dir: Exact, min: lim(3.929), max: lim(3.929),
		get: path("BenchmarkReplayCandidates", "after", "candidates_per_search")},

	// --- BENCH_routing.json (trig-free A*, grouped support table) --
	// The write path's allocations at a fixed 2000 iterations: the path
	// (one allocation, not one per doubling), the ride's tables — its
	// pass-through runs, its supports and their cluster directory, one
	// exact-size allocation each — and the amortized growth of the
	// posting lists. Deterministic at that count, so the bands are exact
	// and the `xarperf -smoke` points must reproduce them — a per-node or
	// per-support allocation trips it, as does a pass-through list grown
	// by `append` (+2 each) or a journal note built on an engine that has
	// no journal (8 and 15).
	{file: "BENCH_routing.json", bench: "BenchmarkFig4bCreateXAR", metric: "create_allocs_per_op",
		unit: "allocs/op", dir: Exact, min: lim(7), max: lim(7),
		get: path("BenchmarkFig4bCreateXAR", "columns", "allocs_per_op")},
	{file: "BENCH_routing.json", bench: "BenchmarkFig4cBookXAR", metric: "book_allocs_per_op",
		unit: "allocs/op", dir: Exact, min: lim(11), max: lim(11),
		get: path("BenchmarkFig4cBookXAR", "columns", "allocs_per_op")},
	// Shortest paths searched per booking over the 2 000-trip replay: an
	// exact count (3.485 when every leg of a splice is searched and an
	// empty one counted; a leg the old route already holds is cut out of
	// it, ISSUE 18).
	{file: "BENCH_routing.json", bench: "BenchmarkReplayCandidates", metric: "replay_paths_per_book",
		unit: "paths/book", dir: Exact, min: lim(2.821), max: lim(2.821),
		get: path("default_alt_sliced_legs", "BenchmarkReplayCandidates", "after", "paths_per_book")},

	// --- BENCH_index.json (one index, blocked posting lists) --------
	// The idle search on the default configuration with no registry,
	// ≈ 300–550 ns: the series `xarperf -smoke` feeds from
	// BenchmarkSearchObservers/bare. The committed point was taken by
	// its predecessor BenchmarkSearchTelemetry/off, the same
	// configuration. The roof trips on what 16 ride-ID stripes cost a
	// search (≈ 1800 ns on the blocked lists, ≈ 2500 before).
	{file: "BENCH_index.json", bench: "BenchmarkSearchObservers/bare", metric: "default_search_ns_per_op",
		unit: "ns/op", dir: LowerBetter, max: lim(1000),
		get: path("default_search", "BenchmarkSearchTelemetry/off", "ns_per_op")},
}

// knownFiles is the set of BENCH files extractors cover.
func knownFiles() map[string]bool {
	m := map[string]bool{}
	for _, e := range extractors {
		m[e.file] = true
	}
	return m
}

// Collect reads dir's BENCH_*.json artifacts through the extractor
// table and assembles the trajectory. Missing files are skipped
// silently (a fresh checkout may predate some artifacts); files whose
// shape defeats an extractor, and BENCH files no extractor knows,
// produce warnings.
func Collect(dir string) (*Trajectory, error) {
	t := &Trajectory{Schema: Schema, Benchmarks: map[string]map[string]*Series{}}

	docs := map[string]any{}
	for _, e := range extractors {
		if _, ok := docs[e.file]; ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.file))
		if os.IsNotExist(err) {
			docs[e.file] = nil
			continue
		} else if err != nil {
			return nil, err
		}
		var doc any
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %v", e.file, err)
		}
		docs[e.file] = doc
	}

	for _, e := range extractors {
		doc := docs[e.file]
		if doc == nil {
			continue
		}
		v, ok := e.get(doc)
		if !ok {
			t.Warnings = append(t.Warnings,
				fmt.Sprintf("%s: metric %s/%s not found (shape drift? see bench_schema_test.go)", e.file, e.bench, e.metric))
			continue
		}
		var date string
		if m, ok := doc.(map[string]any); ok {
			date, _ = m["date"].(string)
		}
		s := t.series(e.bench, e.metric)
		if s.Unit == "" {
			s.Unit, s.Direction, s.Min, s.Max = e.unit, e.dir, e.min, e.max
		}
		s.Points = append(s.Points, Point{Source: e.file, Date: date, Value: v})
	}

	// Unknown BENCH artifacts: warn so new files get extractors, but
	// never gate on them (they have no bands).
	known := knownFiles()
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	for _, m := range matches {
		base := filepath.Base(m)
		if base == "BENCH_trajectory.json" || known[base] {
			continue
		}
		t.Warnings = append(t.Warnings,
			fmt.Sprintf("%s: no extractor declares bands for this artifact; not gated", base))
	}
	return t, nil
}

func (t *Trajectory) series(bench, metric string) *Series {
	byMetric := t.Benchmarks[bench]
	if byMetric == nil {
		byMetric = map[string]*Series{}
		t.Benchmarks[bench] = byMetric
	}
	s := byMetric[metric]
	if s == nil {
		s = &Series{}
		byMetric[metric] = s
	}
	return s
}

// AddPoint appends a fresh observation (typically Source "smoke") to
// an existing series; series the extractor table does not declare are
// created band-less and therefore warn rather than gate.
func (t *Trajectory) AddPoint(bench, metric string, p Point) {
	s := t.series(bench, metric)
	s.Points = append(s.Points, p)
}

// Gate judges every point of every banded series against the series'
// declared absolute band and returns the violations (empty = pass).
// The bands are budgets, not history-relative envelopes, so old points
// are as accountable as the newest: a doctored committed artifact and
// a regressed fresh smoke measurement fail the same way. Band-less
// series never gate.
func (t *Trajectory) Gate() []string {
	var out []string
	benches := make([]string, 0, len(t.Benchmarks))
	for b := range t.Benchmarks {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	for _, b := range benches {
		metrics := make([]string, 0, len(t.Benchmarks[b]))
		for m := range t.Benchmarks[b] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			s := t.Benchmarks[b][m]
			for _, p := range s.Points {
				if s.Min != nil && p.Value < *s.Min {
					out = append(out, fmt.Sprintf("%s %s = %g %s (from %s) below floor %g",
						b, m, p.Value, s.Unit, p.Source, *s.Min))
				}
				if s.Max != nil && p.Value > *s.Max {
					out = append(out, fmt.Sprintf("%s %s = %g %s (from %s) exceeds budget %g",
						b, m, p.Value, s.Unit, p.Source, *s.Max))
				}
			}
		}
	}
	return out
}
