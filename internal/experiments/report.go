package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"

	"xar/internal/quality"
	"xar/internal/telemetry"
)

// WriteQuality writes a run's match-quality picture — the candidate
// funnel, the approximation-gap distributions, and (when the shadow
// matcher ran) the constraint attribution and greedy-regret stats — the
// post-run summary xarsim, xarbench and xarload share.
func WriteQuality(w io.Writer, s quality.Snapshot) {
	fmt.Fprintf(w, "\n--- match quality ---\n")
	fmt.Fprintf(w, "candidates examined: %d\n", s.CandidatesExamined)
	for _, st := range quality.Stages() {
		if n := s.Funnel[st]; n > 0 || st == "matched" {
			fmt.Fprintf(w, "  %-18s %d\n", st, n)
		}
	}
	if s.DetourSlack.Count > 0 {
		fmt.Fprintf(w, "detour slack ratio (of Theorem 6 limit): mean %.3f p50 %.3f p90 %.3f p99 %.3f (n=%d)\n",
			s.DetourSlack.Mean, s.DetourSlack.P50, s.DetourSlack.P90, s.DetourSlack.P99, s.DetourSlack.Count)
	}
	if s.EpsilonConsumption.Count > 0 {
		fmt.Fprintf(w, "epsilon consumption (of 4ε allowance):   mean %.3f p50 %.3f p90 %.3f p99 %.3f (n=%d)\n",
			s.EpsilonConsumption.Mean, s.EpsilonConsumption.P50, s.EpsilonConsumption.P90, s.EpsilonConsumption.P99, s.EpsilonConsumption.Count)
	}
	if s.Shadow.Enabled {
		fmt.Fprintf(w, "shadow: %d no-match + %d regret tasks (%d dropped)\n",
			s.Shadow.Tasks[quality.TaskNoMatch], s.Shadow.Tasks[quality.TaskRegret], s.Shadow.Dropped)
		for _, con := range quality.Constraints() {
			if n := s.Shadow.Unlocks[con]; n > 0 {
				fmt.Fprintf(w, "  unlocked by relaxing %-16s %d\n", con, n)
			}
		}
		if r := s.Shadow.Regret; r.Bookings > 0 {
			fmt.Fprintf(w, "  greedy regret: %d/%d re-matched bookings beat the greedy choice (mean %.0f m, max %.0f m)\n",
				r.WithRegret, r.Rematched, r.MeanM, r.MaxM)
		}
	}
}

// DumpTraces writes the run's n slowest traces (full span trees) to path.
func DumpTraces(tr *telemetry.Tracer, path string, n int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := telemetry.WriteSlowest(f, tr.Store(), n); err != nil {
		return err
	}
	log.Printf("wrote %d slowest traces to %s (of %d retained)", n, path, tr.Store().Len())
	return f.Close()
}

// DumpHistory writes the recorder's full retained time-series as JSON.
func DumpHistory(rec *telemetry.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dump := rec.History(telemetry.HistoryQuery{})
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dump); err != nil {
		return err
	}
	log.Printf("wrote %d history snapshots (%d series) to %s",
		dump.Snapshots, len(dump.Series), path)
	return f.Close()
}
