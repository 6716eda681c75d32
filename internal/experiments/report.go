package experiments

import (
	"fmt"
	"io"

	"xar/internal/core"
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
