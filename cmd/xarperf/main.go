// Command xarperf is the performance-regression sentinel CLI: it
// folds every committed BENCH_*.json artifact into the longitudinal
// trajectory document (BENCH_trajectory.json, schema
// xar-bench-trend/v1) and optionally gates on it — the `make
// bench-trend` CI job.
//
//	xarperf                       # print the trajectory to stdout
//	xarperf -out BENCH_trajectory.json
//	xarperf -gate                 # exit 1 if a headline metric left its band
//	xarperf -gate -smoke          # also run fresh search micro-benchmarks
//	                              # and gate them against their bands
//
// -smoke runs `go test -run '^$' -bench
// '^(BenchmarkSearchTelemetry|BenchmarkSearchDense)$' -benchmem` in -dir
// and appends the fresh measurements to the headline search ns/op series
// and to the dense search's allocs/op series (an exact band: the count
// is deterministic), so the gate compares this machine's hot path today
// against the committed history, not just artifact against artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"strconv"

	"xar/internal/perftrend"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xarperf: ")

	dir := flag.String("dir", ".", "repository root holding the BENCH_*.json artifacts")
	out := flag.String("out", "-", "trajectory output path (\"-\" = stdout)")
	gate := flag.Bool("gate", false, "exit 1 when the newest point of any banded series is outside its band")
	smoke := flag.Bool("smoke", false, "run short fresh search benchmarks in -dir and append them to the headline ns/op and dense allocs/op series")
	benchtime := flag.String("benchtime", "300ms", "benchtime for -smoke")
	flag.Parse()

	t, err := perftrend.Collect(*dir)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range t.Warnings {
		log.Printf("warning: %s", w)
	}

	// The written trajectory is the deterministic fold of the committed
	// artifacts — the smoke point joins only the in-memory gate below,
	// so re-running `make bench-trend` never dirties the committed file
	// with one machine's ephemeral measurement.
	buf, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			log.Fatal(err)
		}
		n := 0
		for _, byMetric := range t.Benchmarks {
			n += len(byMetric)
		}
		log.Printf("wrote %s (%d benchmarks, %d series)", *out, len(t.Benchmarks), n)
	}

	if *smoke {
		ns, allocs, err := runSmoke(*dir, *benchtime)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("smoke: BenchmarkSearchTelemetry/off %.0f ns/op, BenchmarkSearchDense %.0f allocs/op", ns, allocs)
		t.AddPoint("BenchmarkSearchTelemetry", "off_ns_per_op",
			perftrend.Point{Source: "smoke", Value: ns})
		t.AddPoint("BenchmarkSearchDense", "search_dense_allocs_per_op",
			perftrend.Point{Source: "smoke", Value: allocs})
	}
	if *gate {
		if violations := t.Gate(); len(violations) > 0 {
			for _, v := range violations {
				log.Printf("GATE: %s", v)
			}
			os.Exit(1)
		}
		log.Printf("gate: every banded series is within its band")
	}
}

var (
	telemetryLine = regexp.MustCompile(`(?m)^BenchmarkSearchTelemetry/off\S*\s+\d+\s+([\d.]+) ns/op`)
	denseLine     = regexp.MustCompile(`(?m)^BenchmarkSearchDense\S*\s+\d+\s.*\s(\d+) allocs/op`)
)

// runSmoke measures the search hot path fresh, via the repo's own
// benchmarks: the instrumented-but-idle search's ns/op and the dense
// search's allocs/op.
func runSmoke(dir, benchtime string) (ns, allocs float64, err error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", "^(BenchmarkSearchTelemetry|BenchmarkSearchDense)$", "-benchmem", "-benchtime", benchtime, ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, 0, fmt.Errorf("smoke benchmark: %v\n%s", err, out)
	}
	tm, dm := telemetryLine.FindSubmatch(out), denseLine.FindSubmatch(out)
	if tm == nil || dm == nil {
		return 0, 0, fmt.Errorf("smoke benchmark produced no BenchmarkSearchTelemetry/off or BenchmarkSearchDense line:\n%s", out)
	}
	if ns, err = strconv.ParseFloat(string(tm[1]), 64); err != nil {
		return 0, 0, err
	}
	allocs, err = strconv.ParseFloat(string(dm[1]), 64)
	return ns, allocs, err
}
