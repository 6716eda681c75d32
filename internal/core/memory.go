package core

import (
	"runtime"
	"sync"

	"xar/internal/memsize"
	"xar/internal/telemetry"
)

// Memory observability: every engine owns a memsize component registry
// into which each memory-owning subsystem registers at construction.
// A sweep walks the registered components, publishes xar_memsize_bytes
// gauges plus the live rides-per-GB frontier, and keeps the report.
// Sweeps run off the request path and only when asked for (MemSweep);
// a caller that wants a cadence — xarserver — runs its own worker.
// Which code allocated the heap is a heap profile's question (`go tool
// pprof` on the continuous profiler's heap blob or the debug bundle's
// heap.pprof), not this one's.

// HeapStats is the runtime.MemStats slice the memory report carries:
// enough to judge GC pressure and compare the tracked component total
// against what the runtime actually holds.
type HeapStats struct {
	// HeapAllocBytes is live-object bytes (runtime HeapAlloc) — the
	// denominator of TrackedCoverageRatio.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// HeapInUseBytes is bytes in in-use spans (≥ HeapAllocBytes;
	// includes not-yet-reused free slots).
	HeapInUseBytes uint64 `json:"heap_inuse_bytes"`
	// HeapSysBytes is heap memory obtained from the OS.
	HeapSysBytes uint64 `json:"heap_sys_bytes"`
	HeapObjects  uint64 `json:"heap_objects"`
	// TotalAllocBytes is cumulative bytes allocated since process start.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// NextGCBytes is the heap-alloc target of the next GC cycle.
	NextGCBytes uint64 `json:"next_gc_bytes"`
	NumGC       uint32 `json:"num_gc"`
	// GCCPUFraction is the fraction of CPU time spent in GC since start.
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
	LastGCUnix    float64 `json:"last_gc_unix,omitempty"`
	// TrackedCoverageRatio is tracked_total_bytes / heap_alloc_bytes —
	// how much of the live heap the component registry explains. The
	// bench-observers smoke test fences this against drift.
	TrackedCoverageRatio float64 `json:"tracked_coverage_ratio"`
}

// MemorySweepInfo is the sweep metadata of a report.
type MemorySweepInfo struct {
	// Count is the total sweeps completed since engine construction.
	Count uint64 `json:"count"`
	// DurationSeconds is the component walk's cost for this sweep.
	DurationSeconds float64 `json:"duration_seconds"`
}

// MemoryReport is one full memory observation: the per-component
// retained-byte breakdown, the rides-per-GB frontier point and runtime
// heap/GC statistics. Served at GET /v1/memory, embedded in debug
// bundles as memory.json, and summarized by the cmd tools.
type MemoryReport struct {
	Unix        float64 `json:"unix"`
	ActiveRides int     `json:"active_rides"`

	Sweep MemorySweepInfo `json:"sweep"`

	// Components holds non-overlapping per-component retained bytes in
	// attribution order (shared structures count toward the earliest-
	// registered component that reaches them).
	Components        []memsize.ComponentBytes `json:"components"`
	TrackedTotalBytes uint64                   `json:"tracked_total_bytes"`

	// IndexBytes is the ride index's share — ride state only, with the
	// static world (graph, discretization) attributed to its own
	// components — and the denominator of RidesPerGB.
	IndexBytes uint64 `json:"index_bytes"`
	// RidesPerGB is the live capacity frontier: active rides per GB of
	// index memory. The ROADMAP's compaction work is judged by moving
	// this number.
	RidesPerGB float64 `json:"rides_per_gb"`

	Heap HeapStats `json:"heap"`
}

// memoryMonitor is the engine's component registry and its last sweep.
type memoryMonitor struct {
	comps memsize.Registry
	mu    sync.Mutex // serializes sweeps, guards last
	last  *MemoryReport
}

// MemComponents returns the engine's memory-accounting registry. The
// server registers its own components (profiler rings, trace store,
// flight recorder) there, after the engine's.
func (e *Engine) MemComponents() *memsize.Registry { return &e.mem.comps }

// MemSweep runs one synchronous memory sweep — component walk, MemStats
// snapshot, gauge publication — and returns the report. Sweeps
// serialize; the walk takes per-component locks one component at a time
// and is safe while the engine serves traffic. The xar_memsize_* and
// xar_rides_per_gb instruments register at the first sweep.
func (e *Engine) MemSweep() *MemoryReport {
	m := &e.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	return e.sweepLocked()
}

// LastMemReport returns the most recent sweep's report, sweeping first
// when none has run yet.
func (e *Engine) LastMemReport() *MemoryReport {
	m := &e.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last == nil {
		return e.sweepLocked()
	}
	return m.last
}

func (e *Engine) sweepLocked() *MemoryReport {
	m := &e.mem
	// Heap snapshot first: the component walk allocates transient
	// scratch (the walker's seen set) that would otherwise inflate
	// HeapAlloc and skew the coverage ratio against the very structures
	// being measured.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sw := m.comps.Sweep()
	rides := e.NumRides()

	indexBytes := sw.Component("index")
	rpg := 0.0
	if indexBytes > 0 {
		rpg = float64(rides) / (float64(indexBytes) / (1 << 30))
	}
	var count uint64 = 1
	if m.last != nil {
		count = m.last.Sweep.Count + 1
	}
	rep := &MemoryReport{
		Unix:              sw.Unix,
		ActiveRides:       rides,
		Sweep:             MemorySweepInfo{Count: count, DurationSeconds: sw.DurationSeconds},
		Components:        sw.Components,
		TrackedTotalBytes: sw.TotalBytes,
		IndexBytes:        indexBytes,
		RidesPerGB:        rpg,
		Heap: HeapStats{
			HeapAllocBytes:  ms.HeapAlloc,
			HeapInUseBytes:  ms.HeapInuse,
			HeapSysBytes:    ms.HeapSys,
			HeapObjects:     ms.HeapObjects,
			TotalAllocBytes: ms.TotalAlloc,
			NextGCBytes:     ms.NextGC,
			NumGC:           ms.NumGC,
			GCCPUFraction:   ms.GCCPUFraction,
		},
	}
	if ms.LastGC > 0 {
		rep.Heap.LastGCUnix = float64(ms.LastGC) / 1e9
	}
	if ms.HeapAlloc > 0 {
		rep.Heap.TrackedCoverageRatio = float64(sw.TotalBytes) / float64(ms.HeapAlloc)
	}

	if reg := e.cfg.Telemetry; reg != nil {
		// The registry returns the live instrument on every later call.
		for _, c := range sw.Components {
			reg.Gauge("xar_memsize_bytes",
				"Retained bytes of one tracked component, from the last memory sweep.",
				telemetry.L("component", c.Name)).Set(float64(c.Bytes))
		}
		reg.Gauge("xar_rides_per_gb",
			"Active rides per GB of ride-index memory (the capacity frontier), from the last memory sweep.", nil).
			Set(rpg)
		reg.Histogram("xar_memsize_sweep_duration_seconds",
			"Duration of one memory-accounting sweep (component walk).",
			telemetry.DurationBuckets(), nil).Observe(sw.DurationSeconds)
	}
	m.last = rep
	return rep
}
