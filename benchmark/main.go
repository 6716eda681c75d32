// Command benchmark is the repository's benchmark: four closed-loop,
// fixed-work workloads, nine end-to-end metrics measured with tracing
// off, and a traced pass that derives a per-layer ledger from spans
// recorded around the calls into each layer. See README.md.
//
//	bash benchmark/run.sh --workload replay_city --seed 42 --seconds 6 --trace 0
//	bash benchmark/run.sh --workload all --sets 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 6

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 42, "seed every generated input derives from")
	seconds := flag.Float64("seconds", defaultSeconds, "measured time a run accumulates before it stops")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and its per-layer metrics")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans here as JSON lines (default "+buildDirName+"/spans-<workload>.jsonl)")
	sets := flag.Int("sets", 1, "repeat the run this many times and print each metric's median, quartiles and spread")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	ok := true
	for _, name := range names {
		o := runOpts{workload: name, seed: *seed, seconds: *seconds, traced: *trace == 1, div: 1, root: root, traceOut: *traceOut}
		if o.traced && o.traceOut == "" {
			o.traceOut = buildDirName + "/spans-" + name + ".jsonl"
		}
		var reports []*report
		for i := 0; i < *sets; i++ {
			r, err := run(o)
			if err != nil {
				fatal(err)
			}
			reports = append(reports, r)
			printReport(r, o.traced)
		}
		if *sets > 1 {
			printSpread(name, reports, o.traced)
		}
		last := reports[len(reports)-1]
		ok = ok && len(last.violations) == 0
		// The result line is the last line of a single-workload run.
		if len(names) == 1 {
			printResult(last, o.traced)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printReport prints every metric of the pass by name, with its unit
// and, for timings, the sample count behind it.
func printReport(r *report, traced bool) {
	pass := "end-to-end, tracing off"
	if traced {
		pass = "per-layer, traced pass"
	}
	fmt.Printf("== %s (%s) ==\n", r.workload, pass)
	for _, d := range defsFor(traced) {
		line := fmt.Sprintf("%-40s %16.6g %-6s", d.name, r.values[d.name], d.unit)
		if n, ok := r.samples[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("attempted %d, failed %d\n", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, v := range r.violations {
		fmt.Println("VIOLATION:", v)
	}
}

// printSpread is how the bounds in BENCHMARK.json are derived: over the
// sets, each metric's median, quartiles and interquartile spread.
func printSpread(workload string, reports []*report, traced bool) {
	fmt.Printf("== %s: %d sets ==\n", workload, len(reports))
	fmt.Printf("%-40s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, d := range defsFor(traced) {
		var xs []float64
		for _, r := range reports {
			xs = append(xs, r.values[d.name])
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Printf("%-40s %14.6g %14.6g %14.6g %8.4f\n", d.name, q1, q2, q3, spreadOf(xs))
	}
}

// printResult prints the one-line JSON result the driver reads.
func printResult(r *report, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defsFor(traced) {
		metrics[d.name] = value{Value: r.values[d.name], Unit: d.unit}
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		if _, declared := metrics[name]; !declared {
			names = append(names, name)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		fatal(fmt.Errorf("metrics computed but not declared in schema.go: %v", names))
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.violations) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}
