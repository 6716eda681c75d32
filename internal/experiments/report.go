package experiments

import (
	"fmt"
	"io"

	"xar/internal/core"
	"xar/internal/quality"
)

// WriteMemory writes an engine's memory report — which component owns
// the retained bytes, how much of the live heap (runtime HeapAlloc, the
// denominator of TrackedCoverageRatio) that explains, and rides per GB
// of index. It is xarsim's post-run summary and what xarserver prints
// at startup. Which code holds the live heap is `go tool pprof
// -sample_index=inuse_space -top` on a heap profile.
func WriteMemory(w io.Writer, rep *core.MemoryReport) {
	const mb = 1 << 20
	fmt.Fprintf(w, "\n--- memory ---\n")
	for _, c := range rep.Components {
		fmt.Fprintf(w, "  %-16s %8.1f MB\n", c.Name, float64(c.Bytes)/mb)
	}
	fmt.Fprintf(w, "  %-16s %8.1f MB (heap alloc %.1f MB, %.0f%% tracked)\n",
		"tracked total", float64(rep.TrackedTotalBytes)/mb,
		float64(rep.Heap.HeapAllocBytes)/mb, 100*rep.Heap.TrackedCoverageRatio)
	fmt.Fprintf(w, "  %d active rides, %.0f rides/GB of index\n", rep.ActiveRides, rep.RidesPerGB)
}

// WriteQuality writes a run's match-quality picture — the candidate
// funnel, the approximation-gap distributions, and (when the shadow
// matcher ran) the constraint attribution and greedy-regret stats — the
// post-run summary xarsim and xarbench share.
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
