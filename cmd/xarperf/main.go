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
// -smoke runs the repo's own benchmarks in -dir (`go test -run '^$'
// -bench … -benchmem`) and appends the fresh measurements to the
// default-configuration search ns/op series and to the exact-band series
// (allocs/op of the dense search, create and book; candidates per search
// and paths per booking of the replay), so the gate compares this machine's hot paths today
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
	smoke := flag.Bool("smoke", false, "run short fresh benchmarks in -dir and append them to the default-search ns/op, the search/create/book allocs/op and the replay candidates/search and paths/book series")
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
		for _, run := range smokeRuns(*benchtime) {
			if err := run.measure(*dir, t); err != nil {
				log.Fatal(err)
			}
		}
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

// smokeRun is one `go test -bench` invocation of -smoke and the series
// its output lines feed.
type smokeRun struct {
	bench, benchtime string
	series           []smokeSeries
}

// smokeSeries extracts one value from the benchmark output: line's first
// group is the measurement of trajectory series bench/metric.
type smokeSeries struct {
	bench, metric string
	line          *regexp.Regexp
}

func allocsLine(bench string) *regexp.Regexp {
	return regexp.MustCompile(`(?m)^` + bench + `\S*\s+\d+\s.*\s(\d+) allocs/op`)
}

// smokeRuns lists what -smoke measures: for benchtime, the idle search's
// ns/op, the dense search's allocs/op and the replay's candidates/search
// and paths/book;
// and the write path's allocs/op at a fixed iteration count, because create
// and book amortize the growth of posting lists and the ride map over
// the run — their per-op count is exact only at the count the band was
// recorded at.
//
// `go test -bench` splits a pattern at every unparenthesised `/` into
// per-level patterns, and a top-level benchmark that matches only a
// prefix of the levels runs just its sub-benchmarks — a `/^bare$` level
// applied to the whole pattern would silently drop the dense and replay
// lines. Hence one `|` alternative per depth.
func smokeRuns(benchtime string) []smokeRun {
	return []smokeRun{
		{bench: "^(BenchmarkSearchDense|BenchmarkReplayCandidates)$|^BenchmarkSearchObservers$/^bare$", benchtime: benchtime, series: []smokeSeries{
			{"BenchmarkSearchObservers/bare", "default_search_ns_per_op", regexp.MustCompile(`(?m)^BenchmarkSearchObservers/bare\S*\s+\d+\s+([\d.]+) ns/op`)},
			{"BenchmarkSearchDense", "search_dense_allocs_per_op", allocsLine("BenchmarkSearchDense")},
			{"BenchmarkReplayCandidates", "replay_candidates_per_search", regexp.MustCompile(`(?m)^BenchmarkReplayCandidates\S*\s.*\s([\d.]+) candidates/search`)},
			{"BenchmarkReplayCandidates", "replay_paths_per_book", regexp.MustCompile(`(?m)^BenchmarkReplayCandidates\S*\s.*\s([\d.]+) paths/book`)},
		}},
		{bench: "^(BenchmarkFig4bCreateXAR|BenchmarkFig4cBookXAR)$", benchtime: "2000x", series: []smokeSeries{
			{"BenchmarkFig4bCreateXAR", "create_allocs_per_op", allocsLine("BenchmarkFig4bCreateXAR")},
			{"BenchmarkFig4cBookXAR", "book_allocs_per_op", allocsLine("BenchmarkFig4cBookXAR")},
		}},
	}
}

// measure runs the benchmarks fresh and appends each series' value to
// the trajectory as a "smoke" point.
func (r smokeRun) measure(dir string, t *perftrend.Trajectory) error {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", r.bench, "-benchmem", "-benchtime", r.benchtime, ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("smoke benchmark: %v\n%s", err, out)
	}
	for _, s := range r.series {
		m := s.line.FindSubmatch(out)
		if m == nil {
			return fmt.Errorf("smoke benchmark produced no %s line for %s:\n%s", s.bench, s.metric, out)
		}
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			return err
		}
		log.Printf("smoke: %s %s = %v", s.bench, s.metric, v)
		t.AddPoint(s.bench, s.metric, perftrend.Point{Source: "smoke", Value: v})
	}
	return nil
}
