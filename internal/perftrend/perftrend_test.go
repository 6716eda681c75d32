package perftrend

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot is where the committed BENCH artifacts live relative to
// this package.
const repoRoot = "../.."

// copyBenches clones the repo's committed BENCH_*.json set into a temp
// dir the test can doctor.
func copyBenches(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	matches, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no committed BENCH artifacts found: %v", err)
	}
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(m)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// doctor rewrites one value inside a BENCH file via a mutation over
// its decoded JSON.
func doctor(t *testing.T, dir, file string, mutate func(doc map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, file)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	mutate(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedArtifactsPassGate is the sentinel's own regression
// test: the trajectory built from the repo's committed BENCH set must
// cover every artifact the extractor table declares and pass the gate
// — if it doesn't, either an artifact regressed or a band is wrong,
// and both need a human.
func TestCommittedArtifactsPassGate(t *testing.T) {
	tr, err := Collect(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Gate(); len(got) > 0 {
		t.Fatalf("committed BENCH set fails the gate:\n%s", strings.Join(got, "\n"))
	}
	if tr.Schema != Schema {
		t.Fatalf("schema = %q, want %q", tr.Schema, Schema)
	}
	// Every committed artifact must contribute at least one point.
	sources := map[string]bool{}
	for _, byMetric := range tr.Benchmarks {
		for _, s := range byMetric {
			for _, p := range s.Points {
				sources[p.Source] = true
			}
		}
	}
	for _, file := range []string{
		"BENCH_ch.json", "BENCH_index.json", "BENCH_parallel.json",
		"BENCH_routing.json", "BENCH_scale.json", "BENCH_search.json",
	} {
		if !sources[file] {
			t.Errorf("committed artifact %s contributed no points to the trajectory", file)
		}
	}
	// Shape drift in a committed file must have been caught by the
	// schema tests before it got here.
	for _, w := range tr.Warnings {
		if strings.Contains(w, "shape drift") {
			t.Errorf("extractor defeated by committed artifact: %s", w)
		}
	}
}

// TestGateFailsOnSeededRegression doctors committed artifacts with
// regressions the sentinel exists to catch and asserts each one trips
// the gate.
func TestGateFailsOnSeededRegression(t *testing.T) {
	cases := []struct {
		name, file string
		mutate     func(doc map[string]any)
		want       string // substring of the expected violation
	}{
		{
			name: "ch speedup collapse", file: "BENCH_ch.json",
			mutate: func(doc map[string]any) {
				sizes := doc["sizes"].([]any)
				sizes[len(sizes)-1].(map[string]any)["ch_speedup_vs_alt"] = 2.0
			},
			want: "ch_speedup_vs_alt_largest",
		},
		{
			name: "ch distance mismatch", file: "BENCH_ch.json",
			mutate: func(doc map[string]any) {
				doc["sizes"].([]any)[0].(map[string]any)["distance_mismatches"] = 3.0
			},
			want: "distance_mismatches_total",
		},
		{
			name: "search hot path regression", file: "BENCH_parallel.json",
			mutate: func(doc map[string]any) {
				doc["go_bench"].(map[string]any)["serial_regression_check"].(map[string]any)["BenchmarkSearchThroughput_ns_per_op"] = 2500.0
			},
			want: "serial_ns_per_op",
		},
		{
			name: "rides per GB collapse", file: "BENCH_scale.json",
			mutate: func(doc map[string]any) {
				steps := doc["steps"].([]any)
				steps[len(steps)-1].(map[string]any)["memory"].(map[string]any)["rides_per_gb"] = 100.0
			},
			want: "rides_per_gb_last_step",
		},
		{
			name: "per-match allocation comes back", file: "BENCH_search.json",
			mutate: func(doc map[string]any) {
				doc["BenchmarkSearchDense"].(map[string]any)["columns"].(map[string]any)["allocs_per_op"] = 150.0
			},
			want: "search_dense_allocs_per_op",
		},
		{
			name: "full rides come back into the posting lists", file: "BENCH_search.json",
			mutate: func(doc map[string]any) {
				doc["BenchmarkReplayCandidates"].(map[string]any)["after"].(map[string]any)["candidates_per_search"] = 53.99
			},
			want: "replay_candidates_per_search",
		},
		{
			// What a search over 16 ride-ID stripes cost: inside the
			// historical series' 8000 ns roof, outside this one's.
			name: "default search pays for stripes again", file: "BENCH_index.json",
			mutate: func(doc map[string]any) {
				doc["default_search"].(map[string]any)["BenchmarkSearchTelemetry/off"].(map[string]any)["ns_per_op"] = 2500.0
			},
			want: "default_search_ns_per_op",
		},
		{
			name: "per-node allocation comes back", file: "BENCH_routing.json",
			mutate: func(doc map[string]any) {
				doc["BenchmarkFig4cBookXAR"].(map[string]any)["columns"].(map[string]any)["allocs_per_op"] = 31.0
			},
			want: "book_allocs_per_op",
		},
		{
			name: "a booking searches every leg again", file: "BENCH_routing.json",
			mutate: func(doc map[string]any) {
				doc["default_alt_sliced_legs"].(map[string]any)["BenchmarkReplayCandidates"].(map[string]any)["after"].(map[string]any)["paths_per_book"] = 3.485
			},
			want: "replay_paths_per_book",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyBenches(t)
			doctor(t, dir, tc.file, tc.mutate)
			tr, err := Collect(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := tr.Gate()
			if len(got) == 0 {
				t.Fatalf("doctored %s passed the gate", tc.file)
			}
			found := false
			for _, v := range got {
				if strings.Contains(v, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("violations %v do not mention %q", got, tc.want)
			}
		})
	}
}

// TestSmokePointGatesAgainstBand: an appended fresh observation (the
// -smoke path) is the newest point of its series and is judged by the
// same band; series AddPoint invents are band-less and never gate.
func TestSmokePointGatesAgainstBand(t *testing.T) {
	tr, err := Collect(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	tr.AddPoint("BenchmarkSearchObservers/bare", "default_search_ns_per_op", Point{Source: "smoke", Value: 550})
	if got := tr.Gate(); len(got) != 0 {
		t.Fatalf("healthy smoke point tripped the gate: %v", got)
	}
	tr.AddPoint("BenchmarkSearchObservers/bare", "default_search_ns_per_op", Point{Source: "smoke", Value: 1800})
	got := tr.Gate()
	if len(got) != 1 || !strings.Contains(got[0], "smoke") {
		t.Fatalf("regressed smoke point not caught: %v", got)
	}
	tr.AddPoint("SomeNewBench", "whatever_ns", Point{Source: "smoke", Value: 1e12})
	if got := tr.Gate(); len(got) != 1 {
		t.Fatalf("band-less series gated: %v", got)
	}
}

// TestUnknownArtifactWarnsNotGates: a BENCH file no extractor knows
// must surface as a warning, never a gate failure.
func TestUnknownArtifactWarnsNotGates(t *testing.T) {
	dir := copyBenches(t)
	if err := os.WriteFile(filepath.Join(dir, "BENCH_novel.json"), []byte(`{"x":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := Collect(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range tr.Warnings {
		if strings.Contains(w, "BENCH_novel.json") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unknown artifact produced no warning: %v", tr.Warnings)
	}
	if got := tr.Gate(); len(got) != 0 {
		t.Fatalf("unknown artifact tripped the gate: %v", got)
	}
}
