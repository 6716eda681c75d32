package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// testDiv runs the workloads at a twentieth of their op counts.
const testDiv = 20

func mustRun(t *testing.T, o runOpts) *report {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	o.root = root
	r, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	if len(r.violations) > 0 {
		t.Fatalf("%s: violations: %v", o.workload, r.violations)
	}
	if r.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed", o.workload, r.failed, r.attempted)
	}
	return r
}

// TestDeterminism runs each in-process workload twice per pass and
// requires the counters that must repeat exactly to do so.
func TestDeterminism(t *testing.T) {
	exact := map[bool][]string{
		false: {"match_rate", "index_bytes_per_ride"},
		true: {
			"roadnet.sp_calls_per_create", "roadnet.sp_calls_per_book", "core.matches_per_search",
			"core.candidates_per_search", "index.bytes_per_ride", "workload.inputs_sha256_48",
		},
	}
	for _, name := range []string{"replay_city", "search_dense", "search_sparse"} {
		for traced, metrics := range exact {
			name, traced, metrics := name, traced, metrics
			pass := map[bool]string{false: "end_to_end", true: "traced"}[traced]
			t.Run(name+"/"+pass, func(t *testing.T) {
				t.Parallel()
				o := runOpts{workload: name, seed: 42, seconds: 0, traced: traced, div: testDiv}
				a, b := mustRun(t, o), mustRun(t, o)
				for _, m := range metrics {
					if a.values[m] != b.values[m] {
						t.Errorf("%s differs between two runs of the same inputs: %v vs %v", m, a.values[m], b.values[m])
					}
					if a.values[m] == 0 {
						t.Errorf("%s is 0", m)
					}
				}
			})
		}
	}
}

// TestBandsOnClaimSeed checks, at full size, that each in-process
// workload keeps its defining property on seed 7 — the seed later issues
// check their claims on, which nothing here was tuned against.
func TestBandsOnClaimSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size rounds")
	}
	const claimSeed = 7
	for _, name := range []string{"replay_city", "search_dense", "search_sparse"} {
		var in *instance
		var err error
		if spec, ok := searchSpecs[name]; ok {
			in, err = searchInstance(spec, claimSeed, 1, nil)
		} else {
			in, err = replayInstance(claimSeed, 1, nil)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := newReport(name)
		r.absorb(in.s)
		checkBands(r, name, []*sample{in.s})
		if len(r.violations) > 0 || r.failed > 0 {
			t.Errorf("%s on seed %d: failed %d, violations %v", name, claimSeed, r.failed, r.violations)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestSchema holds BENCHMARK.json and schema.go together and both to the
// contract's limits, and checks that each pass prints exactly the
// declared names.
func TestSchema(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if n := len(bj.Workloads); n != len(gatedWorkloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads declared, the program gates %d (limits 2..8)", n, len(gatedWorkloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != gatedWorkloads[i] {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, gatedWorkloads[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(endToEnd), len(perLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, declared []jsonMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, schema.go %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			j := declared[i]
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s %q (%q): name or unit outside the allowed characters", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s %q is declared twice", kind, d.name)
			}
			seen[d.name] = true
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, schema.go %+v", kind, i, j, d)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s %q: better = %q", kind, d.name, d.better)
			}
			switch {
			case bounded && (j.Bound == nil || *j.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %q: bound must be in (0, 0.25] and agree: BENCHMARK.json %v, schema.go %v", kind, d.name, j.Bound, d.bound)
			case !bounded && j.Bound != nil:
				t.Errorf("%s %q: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd, true)
	compare("per_layer", bj.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}

	for _, traced := range []bool{false, true} {
		r := mustRun(t, runOpts{workload: "replay_city", seed: 42, traced: traced, div: testDiv})
		defs := defsFor(traced)
		if len(r.values) != len(defs) {
			t.Errorf("traced=%v: %d metrics computed, %d declared", traced, len(r.values), len(defs))
		}
		for _, d := range defs {
			if _, ok := r.values[d.name]; !ok {
				t.Errorf("traced=%v: %s is declared but not computed", traced, d.name)
			}
		}
	}
}

// TestHTTPMixSmoke drives the whole subprocess harness at a twentieth of
// the op count: build xarserver, free port, health wait, seeding, mixed
// load over nproc connections, memory report, clean stop.
func TestHTTPMixSmoke(t *testing.T) {
	r := mustRun(t, runOpts{workload: "http_mix", seed: 42, div: testDiv})
	for _, d := range endToEnd {
		if r.values[d.name] <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, r.values[d.name])
		}
	}
}
