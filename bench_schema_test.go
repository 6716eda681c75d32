// Consistency checks between the code and what the repository states
// about its benchmarks: the committed BENCH_*.json records stay
// machine-readable, every benchmark or test name a Makefile or CI
// pattern passes to `go test` exists, and OBSERVABILITY.md's overhead
// budgets are BenchmarkSearchObservers' own. Each would otherwise go
// stale silently.
package xar

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestBenchArtifactSchemas(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json artifacts found — run from the repo root")
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("%s: not a JSON object: %v", p, err)
			continue
		}
		if len(doc) == 0 {
			t.Errorf("%s: empty document", p)
			continue
		}
		// The hand-written records (vs the tool-emitted frontier and CH
		// reports) all carry provenance: a description, the
		// measurement date, and the hardware it was measured on.
		if _, ok := doc["description"]; !ok {
			continue
		}
		var date string
		if err := json.Unmarshal(doc["date"], &date); err != nil {
			t.Errorf("%s: date is not a string: %v", p, err)
		} else if _, err := time.Parse("2006-01-02", date); err != nil {
			t.Errorf("%s: date %q is not YYYY-MM-DD", p, date)
		}
		var hw map[string]any
		if err := json.Unmarshal(doc["hardware"], &hw); err != nil || len(hw) == 0 {
			t.Errorf("%s: hardware block missing or empty", p)
		}
	}
}

// TestTrajectoryArtifactSchema keeps the committed longitudinal
// trajectory (BENCH_trajectory.json, emitted by `make bench-trend` /
// cmd/xarperf) machine-readable: right schema tag, non-empty benchmark
// map, and every series carrying a direction and at least one point.
// The numbers themselves are judged by the perftrend gate, not here.
func TestTrajectoryArtifactSchema(t *testing.T) {
	raw, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatalf("BENCH_trajectory.json must be committed alongside the perf-trend sentinel (regenerate with `make bench-trend`): %v", err)
	}
	var doc struct {
		Schema     string `json:"schema"`
		Benchmarks map[string]map[string]struct {
			Direction string `json:"direction"`
			Min       *float64
			Max       *float64
			Points    []struct {
				Source string  `json:"source"`
				Value  float64 `json:"value"`
			} `json:"points"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	if doc.Schema != "xar-bench-trend/v1" {
		t.Fatalf("schema = %q, want xar-bench-trend/v1", doc.Schema)
	}
	if len(doc.Benchmarks) == 0 {
		t.Fatal("trajectory records no benchmarks")
	}
	for bench, byMetric := range doc.Benchmarks {
		for metric, s := range byMetric {
			if s.Direction == "" {
				t.Errorf("%s %s: missing direction", bench, metric)
			}
			if len(s.Points) == 0 {
				t.Errorf("%s %s: series has no points", bench, metric)
			}
			for _, p := range s.Points {
				if p.Source == "" {
					t.Errorf("%s %s: point without a source artifact", bench, metric)
				}
			}
		}
	}
}

// TestBenchPatternsNameRealBenchmarks: every `|` alternative of every
// -bench and -run pattern that the Makefile and the CI workflow pass to
// `go test … .` must match a Benchmark or Test func of this package.
// `go test` runs whatever matches and says nothing about an
// alternative that matches nothing, so a renamed benchmark would
// otherwise drop out of a smoke run unnoticed.
func TestBenchPatternsNameRealBenchmarks(t *testing.T) {
	var funcs []string
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	}
	flagRE := regexp.MustCompile(`-(bench|run) '([^']*)'`)
	checked := 0
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.Contains(line, " test ") || !strings.HasSuffix(line, " .") {
				continue // not a `go test` of this package
			}
			line = strings.ReplaceAll(line, "$$", "$") // make's escape; no-op in YAML
			for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
				prefix := map[string]string{"bench": "Benchmark", "run": "Test"}[m[1]]
				for _, alt := range splitTopLevel(m[2], '|') {
					if alt == "^$" {
						continue
					}
					re, err := regexp.Compile(splitTopLevel(alt, '/')[0])
					if err != nil {
						t.Errorf("%s:%d: -%s alternative %q: %v", file, n+1, m[1], alt, err)
						continue
					}
					found := false
					for _, f := range funcs {
						found = found || strings.HasPrefix(f, prefix) && re.MatchString(f)
					}
					if !found {
						t.Errorf("%s:%d: -%s alternative %q matches no %s func of package xar", file, n+1, m[1], alt, prefix)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -bench or -run pattern found to check")
	}
}

// splitTopLevel splits a pattern at every sep outside brackets and
// parentheses, the way `go test` splits -bench and -run patterns into
// alternatives (|) and sub-benchmark levels (/).
func splitTopLevel(pattern string, sep byte) []string {
	var parts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, pattern[start:i])
			start = i + 1
		}
	}
	return append(parts, pattern[start:])
}

// TestOverheadBudgetsTableMatchesArms: every row of OBSERVABILITY.md's
// "Overhead budgets" table names an arm of BenchmarkSearchObservers
// with that arm's baseline and budget, and every budgeted arm has a
// row, so the documented budgets are the ones the smoke fence applies.
func TestOverheadBudgetsTableMatchesArms(t *testing.T) {
	raw, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Overhead budgets\n")
	if !ok {
		t.Fatal(`OBSERVABILITY.md has no "## Overhead budgets" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	arms := map[string]observerArm{}
	for _, arm := range observerArms {
		arms[arm.name] = arm
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if len(cells) != 4 || !strings.HasPrefix(strings.TrimSpace(cells[0]), "`") {
			continue // not a data row of the Arm | Observer | Baseline | Budget table
		}
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		baseline := strings.Trim(strings.TrimSpace(cells[2]), "`")
		budget, err := parseBudget(strings.TrimSpace(cells[3]))
		if err != nil {
			t.Errorf("row %s: %v", name, err)
			continue
		}
		rows[name] = true
		arm, ok := arms[name]
		switch {
		case !ok:
			t.Errorf("row %s names no arm of BenchmarkSearchObservers", name)
		case arm.baseline != baseline || math.Abs(arm.budget-budget) > 1e-9:
			t.Errorf("row %s reads %.2f over %s; the arm is %.2f over %s", name, budget, baseline, arm.budget, arm.baseline)
		}
	}
	for _, arm := range observerArms {
		if arm.budget > 0 && !rows[arm.name] {
			t.Errorf("arm %s (%.2f over %s) has no row in the Overhead budgets table", arm.name, arm.budget, arm.baseline)
		}
	}
}

// parseBudget reads a budget cell: "≤5%" is a 1.05 ratio, "≤3.5×" a 3.5 one.
func parseBudget(cell string) (float64, error) {
	s := strings.TrimPrefix(cell, "≤")
	if v, ok := strings.CutSuffix(s, "%"); ok {
		f, err := strconv.ParseFloat(v, 64)
		return 1 + f/100, err
	}
	if v, ok := strings.CutSuffix(s, "×"); ok {
		return strconv.ParseFloat(v, 64)
	}
	return 0, fmt.Errorf("budget %q is neither ≤N%% nor ≤N×", cell)
}
