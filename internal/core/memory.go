package core

import (
	"runtime"
	"sync"
	"time"

	"xar/internal/memsize"
	"xar/internal/telemetry"
)

// Memory observability: the engine owns a memsize component registry
// (Config.Memory) into which every memory-owning subsystem registers at
// construction, and a budgeted background sweeper that periodically
// walks the registered components, publishes xar_memsize_bytes gauges
// plus the live rides-per-GB frontier, and attributes heap allocations
// to code sites via the runtime's sampled heap profile. Everything runs
// off the request path: a sweep takes per-component locks one component
// at a time, and the worker duty-cycles itself (telemetry.Throttle) so
// sweeping stays near 1% of one core regardless of fleet size.

// DefaultMemSweepInterval is the background sweep cadence used by
// callers that enable the sweeper without choosing an interval.
const DefaultMemSweepInterval = 30 * time.Second

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
	// IntervalSeconds is the configured background cadence (0 when the
	// sweeper runs on demand only).
	IntervalSeconds float64 `json:"interval_seconds"`
}

// MemoryReport is one full memory observation: the per-component
// retained-byte breakdown, the rides-per-GB frontier point, runtime
// heap/GC statistics, and the top allocation sites. Served at
// GET /v1/memory, embedded in debug bundles as memory.json, and
// summarized by the cmd tools.
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

	// AllocSites are the top-K allocation sites by live bytes, with
	// allocation churn deltas since the previous sweep; Subsystems
	// aggregates the full profile by package path.
	AllocSites []memsize.Site           `json:"alloc_sites,omitempty"`
	Subsystems []memsize.SubsystemAlloc `json:"alloc_subsystems,omitempty"`
}

// memoryMonitor owns the component registry, the allocation-site
// profiler, the published gauges, and the optional background worker.
type memoryMonitor struct {
	comps    *memsize.Registry
	sites    *memsize.SiteProfiler
	rides    func() int
	interval time.Duration // 0 → no background worker

	// Instruments; all nil when the engine has no telemetry registry.
	byComponent map[string]*telemetry.Gauge
	telreg      *telemetry.Registry
	total       *telemetry.Gauge
	ridesPerGB  *telemetry.Gauge
	sweeps      *telemetry.Counter
	sweepDur    *telemetry.Histogram

	mu         sync.Mutex // serializes sweeps, guards last/sweepCount
	last       *MemoryReport
	sweepCount uint64

	worker telemetry.Worker
}

func newMemoryMonitor(comps *memsize.Registry, telreg *telemetry.Registry, rides func() int, interval time.Duration) *memoryMonitor {
	m := &memoryMonitor{
		comps:    comps,
		sites:    &memsize.SiteProfiler{},
		rides:    rides,
		interval: interval,
	}
	if telreg != nil {
		m.telreg = telreg
		m.byComponent = make(map[string]*telemetry.Gauge)
		m.total = telreg.Gauge("xar_memsize_total_bytes",
			"Total retained bytes across all tracked components, from the last memory sweep.", nil)
		m.ridesPerGB = telreg.Gauge("xar_rides_per_gb",
			"Active rides per GB of ride-index memory (the capacity frontier), from the last memory sweep.", nil)
		m.sweeps = telreg.Counter("xar_memsize_sweeps_total",
			"Completed memory-accounting sweeps.", nil)
		m.sweepDur = telreg.Histogram("xar_memsize_sweep_duration_seconds",
			"Duration of one memory-accounting sweep (component walk).",
			telemetry.DurationBuckets(), nil)
	}
	return m
}

// sweepNow runs one full sweep: component walk, heap-profile read,
// MemStats snapshot, gauge publication. Sweeps serialize on m.mu, so a
// manual sweep and the background worker never duplicate work
// concurrently.
func (m *memoryMonitor) sweepNow() *MemoryReport {
	m.mu.Lock()
	defer m.mu.Unlock()

	// Heap snapshot first: the component walk and the profile read
	// allocate transient scratch (the walker's seen set, the profile
	// record buffer) that would otherwise inflate HeapAlloc and skew the
	// coverage ratio against the very structures being measured.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sw := m.comps.Sweep()
	sites, subs := m.sites.Profile()
	rides := m.rides()

	indexBytes := sw.Component("index")
	rpg := 0.0
	if indexBytes > 0 {
		rpg = float64(rides) / (float64(indexBytes) / (1 << 30))
	}
	m.sweepCount++
	rep := &MemoryReport{
		Unix:        sw.Unix,
		ActiveRides: rides,
		Sweep: MemorySweepInfo{
			Count:           m.sweepCount,
			DurationSeconds: sw.DurationSeconds,
			IntervalSeconds: m.interval.Seconds(),
		},
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
		AllocSites: sites,
		Subsystems: subs,
	}
	if ms.LastGC > 0 {
		rep.Heap.LastGCUnix = float64(ms.LastGC) / 1e9
	}
	if ms.HeapAlloc > 0 {
		rep.Heap.TrackedCoverageRatio = float64(sw.TotalBytes) / float64(ms.HeapAlloc)
	}

	if m.telreg != nil {
		for _, c := range sw.Components {
			g := m.byComponent[c.Name]
			if g == nil {
				g = m.telreg.Gauge("xar_memsize_bytes",
					"Retained bytes of one tracked component, from the last memory sweep.",
					telemetry.L("component", c.Name))
				m.byComponent[c.Name] = g
			}
			g.Set(float64(c.Bytes))
		}
		m.total.Set(float64(sw.TotalBytes))
		m.ridesPerGB.Set(rpg)
		m.sweeps.Inc()
		m.sweepDur.Observe(sw.DurationSeconds)
	}
	m.last = rep
	return rep
}

// lastReport returns the most recent sweep's report (nil before any).
func (m *memoryMonitor) lastReport() *MemoryReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// start launches the background sweep worker, duty-cycled against the
// sweep's own cost: the reflection walk's direct CPU is only part of it
// (the walk also leaves transient garbage the GC must chase), and the
// search hot path's ≤5% overhead budget has to absorb both.
func (m *memoryMonitor) start() {
	m.worker.Start(m.interval, func() time.Duration {
		start := time.Now()
		m.sweepNow()
		return telemetry.Throttle(m.interval, time.Since(start))
	})
}
