package load

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"xar/internal/core"
	"xar/internal/profile"
	"xar/internal/workload"
)

// SweepConfig parameterizes a rate sweep: the same target is driven at
// each offered rate in turn, producing one frontier step per rate.
type SweepConfig struct {
	// Rates are the offered rates (ops/second) to sweep, sorted
	// ascending before running.
	Rates []float64
	// OpsPerStep is how many arrivals each rate step schedules.
	OpsPerStep int
	// Arrival selects the process: "poisson" (default) or "constant".
	Arrival string
	// Mix / Trips / Seed / MaxInflight are passed through to each Run.
	Mix         Mix
	Trips       []workload.Trip
	Seed        int64
	MaxInflight int
	// WarmupOps, when positive, runs that many unrecorded arrivals at
	// the lowest rate first — JIT-ish effects (pool fills, first GC) land
	// outside the measurement.
	WarmupOps int
	// Observe, when set, runs after each step completes — the hook that
	// attaches memory and server-side cross-check stats to the step.
	Observe func(step *Step, rep *Report)
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Step is one rate step of the frontier.
type Step struct {
	OfferedRate  float64             `json:"offered_rate"`
	AchievedRate float64             `json:"achieved_rate"`
	WallSeconds  float64             `json:"wall_seconds"`
	Ops          int64               `json:"ops"`
	Errors       int64               `json:"errors"`
	MatchRate    float64             `json:"match_rate"`
	Client       Quantiles           `json:"client_latency"`
	PerOp        map[string]OpReport `json:"per_op"`
	// Server is the server-side view of the same step pulled from
	// /v1/metrics/history and /v1/slo — the cross-check that client-
	// observed latency (which includes queueing) brackets the server's
	// own service-time histograms.
	Server *ServerStats `json:"server,omitempty"`
	// Memory captures heap/RSS and the memsize-derived index footprint
	// at the end of the step.
	Memory *MemoryStats `json:"memory,omitempty"`
	// Profile attributes the step's allocations and contention to their
	// hottest symbols (absent when the harness runs without a profiler).
	Profile *ProfileStats `json:"profile,omitempty"`
}

// Frontier is the sweep result — the BENCH_scale.json document.
type Frontier struct {
	Schema      string             `json:"schema"` // frontier schema version tag
	World       map[string]any     `json:"world,omitempty"`
	Mode        string             `json:"mode"`
	Arrival     string             `json:"arrival"`
	Mix         map[string]float64 `json:"mix"`
	MaxInflight int                `json:"max_inflight"`
	OpsPerStep  int                `json:"ops_per_step"`
	Gomaxprocs  int                `json:"gomaxprocs"`
	Steps       []Step             `json:"steps"`
}

// FrontierSchema tags BENCH_scale.json so downstream tooling can detect
// incompatible rewrites.
const FrontierSchema = "xar-bench-scale/v1"

// RunSweep drives target at each rate and assembles the frontier.
func RunSweep(ctx context.Context, target Target, cfg SweepConfig) (*Frontier, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("load: sweep needs at least one rate")
	}
	if cfg.OpsPerStep <= 0 {
		return nil, fmt.Errorf("load: sweep needs OpsPerStep > 0")
	}
	if cfg.Arrival == "" {
		cfg.Arrival = "poisson"
	}
	if cfg.Arrival != "poisson" && cfg.Arrival != "constant" {
		return nil, fmt.Errorf("load: unknown arrival process %q (want poisson or constant)", cfg.Arrival)
	}
	rates := append([]float64(nil), cfg.Rates...)
	sort.Float64s(rates)
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	if cfg.WarmupOps > 0 {
		logf("warmup: %d ops at %.0f/s", cfg.WarmupOps, rates[0])
		_, err := Run(ctx, target, Config{
			Schedule:    Constant(rates[0], cfg.WarmupOps),
			Mix:         cfg.Mix,
			Trips:       cfg.Trips,
			Seed:        cfg.Seed,
			MaxInflight: cfg.MaxInflight,
		})
		if err != nil {
			return nil, err
		}
	}

	f := &Frontier{
		Schema:      FrontierSchema,
		Mode:        "open",
		Arrival:     cfg.Arrival,
		Mix:         cfg.Mix.Map(),
		MaxInflight: cfg.MaxInflight,
		OpsPerStep:  cfg.OpsPerStep,
		Gomaxprocs:  runtime.GOMAXPROCS(0),
	}
	if (cfg.Mix == Mix{}) {
		f.Mix = DefaultMix().Map()
	}
	for i, rate := range rates {
		var sched Schedule
		if cfg.Arrival == "constant" {
			sched = Constant(rate, cfg.OpsPerStep)
		} else {
			sched = Poisson(rate, cfg.OpsPerStep, cfg.Seed+int64(i)*1009)
		}
		rep, err := Run(ctx, target, Config{
			Schedule:    sched,
			Mix:         cfg.Mix,
			Trips:       cfg.Trips,
			Seed:        cfg.Seed + int64(i),
			MaxInflight: cfg.MaxInflight,
		})
		if err != nil {
			return f, err
		}
		step := Step{
			OfferedRate:  rep.OfferedRate,
			AchievedRate: rep.AchievedRate,
			WallSeconds:  rep.WallSeconds,
			Ops:          rep.Ops,
			Errors:       rep.Errors,
			MatchRate:    rep.MatchRate,
			Client:       rep.Latency,
			PerOp:        rep.PerOp,
		}
		if cfg.Observe != nil {
			cfg.Observe(&step, rep)
		}
		f.Steps = append(f.Steps, step)
		logf("rate %.0f/s: achieved %.0f/s, p50 %.2f ms, p99 %.2f ms, match %.2f",
			rep.OfferedRate, rep.AchievedRate, rep.Latency.P50, rep.Latency.P99, rep.MatchRate)
	}
	return f, nil
}

// Gate is the CI regression budget applied to a frontier.
type Gate struct {
	// MaxP99MS bounds the client p99 of the *lowest* rate step — the
	// uncontended service latency; saturation steps are deliberately not
	// gated (they measure the knee, which moves with hardware).
	MaxP99MS float64
	// MinMatchRate is the floor applied to every step's match rate.
	MinMatchRate float64
	// MaxErrors bounds harness-visible errors (transport, 5xx) across
	// the whole sweep; domain rejections are never errors.
	MaxErrors int64
}

// Check returns the gate violations, empty when the frontier passes.
func (f *Frontier) Check(g Gate) []string {
	var out []string
	if len(f.Steps) == 0 {
		return []string{"frontier has no steps"}
	}
	if g.MaxP99MS > 0 {
		if p99 := f.Steps[0].Client.P99; p99 > g.MaxP99MS {
			out = append(out, fmt.Sprintf("lowest-rate p99 %.2f ms exceeds budget %.2f ms", p99, g.MaxP99MS))
		}
	}
	var errs int64
	for _, s := range f.Steps {
		errs += s.Errors
		if g.MinMatchRate > 0 && s.MatchRate < g.MinMatchRate {
			out = append(out, fmt.Sprintf("rate %.0f/s match rate %.3f below floor %.3f",
				s.OfferedRate, s.MatchRate, g.MinMatchRate))
		}
	}
	if errs > g.MaxErrors {
		out = append(out, fmt.Sprintf("%d harness errors exceed budget %d", errs, g.MaxErrors))
	}
	return out
}

// MemoryStats is the per-step memory capture.
type MemoryStats struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
	RSSBytes       uint64 `json:"rss_bytes,omitempty"`
	ActiveRides    int    `json:"active_rides"`
	// IndexBytes is the live ride index's share of the engine's memory
	// sweep — the reproduction's stand-in for the paper's Classmexer
	// measurement (Fig 3c), tracked per load step: ride state only, the
	// static world attributed to its own components.
	IndexBytes uint64 `json:"index_bytes"`
	// RidesPerGB extrapolates index capacity: active rides per GB of
	// index memory. The ROADMAP's memory-compaction arc is judged by
	// moving this number up.
	RidesPerGB float64 `json:"rides_per_gb"`
	// Components is the per-component retained-byte breakdown from the
	// engine's accounting sweep: which subsystem owns the bytes, not
	// just how many there are.
	Components map[string]uint64 `json:"components,omitempty"`
	// TrackedTotalBytes sums Components — the registry's estimate of all
	// tracked retained memory.
	TrackedTotalBytes uint64 `json:"tracked_total_bytes,omitempty"`
}

// MeasureEngine captures the in-process engine's memory state: Go heap,
// OS RSS, and the component breakdown from a fresh accounting sweep.
func MeasureEngine(eng *core.Engine) *MemoryStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep := eng.MemSweep()
	st := &MemoryStats{
		HeapAllocBytes:    ms.HeapAlloc,
		SysBytes:          ms.Sys,
		RSSBytes:          readRSS(),
		ActiveRides:       eng.NumRides(),
		IndexBytes:        rep.IndexBytes,
		RidesPerGB:        rep.RidesPerGB,
		TrackedTotalBytes: rep.TrackedTotalBytes,
		Components:        make(map[string]uint64, len(rep.Components)),
	}
	for _, c := range rep.Components {
		st.Components[c.Name] = c.Bytes
	}
	return st
}

// ProfileStats is the per-step profile attribution recorded into
// BENCH_scale.json: for each profile kind that saw samples during the
// step, the hottest symbol and its share of the kind's total. The
// cumulative kinds (heap_alloc, mutex, block) are deltas against the
// previous capture, so with one capture per step each entry covers
// exactly that step.
type ProfileStats struct {
	CaptureID uint64               `json:"capture_id"`
	Top       map[string]TopSymbol `json:"top"`
}

// TopSymbol is one kind's hottest function in a step.
type TopSymbol struct {
	Func  string  `json:"func"`
	Share float64 `json:"share"` // fraction of the kind's total
}

// MeasureProfile takes a fresh capture and reduces it to the per-kind
// top-symbol attribution. Nil profiler → nil (the field is omitted).
func MeasureProfile(p *profile.Profiler) *ProfileStats {
	if p == nil {
		return nil
	}
	c := p.CaptureNow()
	if c == nil {
		return nil
	}
	st := &ProfileStats{CaptureID: c.ID, Top: map[string]TopSymbol{}}
	for _, kind := range profile.Kinds {
		if fn, share := profile.TopSymbol(c, kind); fn != "" {
			st.Top[kind] = TopSymbol{Func: fn, Share: share}
		}
	}
	return st
}

// readRSS returns the process resident set in bytes via /proc/self/statm
// (0 where that does not exist — RSS is then omitted from the JSON).
func readRSS() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
