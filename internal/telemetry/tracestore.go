package telemetry

import (
	"sort"
	"sync"
	"time"

	"xar/internal/memsize"
)

// Trace-store sizing defaults.
const (
	// DefaultTraceCapacity is the normal ring's capacity in traces. A
	// trace is a few KB (spans × ~200 B), so the default store tops out
	// around a few MB — bounded, allocation-recycling, restart-free.
	DefaultTraceCapacity = 1024
	// minSideRing is the floor for the slow/error rings' capacity.
	minSideRing = 64
)

// TraceStore is a fixed-size ring buffer of finished traces with two
// always-keep side rings, all behind one mutex:
//
//   - normal: head-sampled traffic; new traces overwrite the oldest.
//   - slow: traces over the tracer's SlowThreshold. Kept separately so
//     a flood of fast requests can never evict the outliers — the whole
//     point of keeping traces is explaining the p99.
//   - error: traces whose any span failed, same reasoning.
//
// Reads (Get/List/Slowest) copy pointers under the lock; TraceData
// values are immutable after sealing, so handing them out is safe.
type TraceStore struct {
	mu     sync.Mutex
	normal Ring[*TraceData]
	slow   Ring[*TraceData]
	errs   Ring[*TraceData]
}

// NewTraceStore builds a store with the given normal-ring capacity
// (0 → DefaultTraceCapacity). The slow and error rings each hold
// capacity/4 (min 64).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	side := max(capacity/4, minSideRing)
	return &TraceStore{
		normal: NewRing(make([]*TraceData, capacity)),
		slow:   NewRing(make([]*TraceData, side)),
		errs:   NewRing(make([]*TraceData, side)),
	}
}

// Add files a finished trace under the keep policy. slow is the tracer's
// pre-computed SlowThreshold verdict (the store itself is
// policy-agnostic about durations).
func (s *TraceStore) Add(td *TraceData, slow bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case td.Errored():
		s.errs.Add(td)
	case slow:
		s.slow.Add(td)
	default:
		s.normal.Add(td)
	}
}

// Get returns the stored trace with the given ID.
func (s *TraceStore) Get(id TraceID) (*TraceData, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return findTrace(s.all(nil), id)
}

func findTrace(tds []*TraceData, id TraceID) (*TraceData, bool) {
	for _, td := range tds {
		if td.ID == id {
			return td, true
		}
	}
	return nil, false
}

// all appends every stored trace to dst. Caller holds s.mu.
func (s *TraceStore) all(dst []*TraceData) []*TraceData {
	return s.errs.AppendTo(s.slow.AppendTo(s.normal.AppendTo(dst)))
}

// MeasureMem implements memsize.Measurer: every ring's buffer — and the
// sealed, immutable traces it retains — is walked under the store's
// mutex.
func (s *TraceStore) MeasureMem(a *memsize.Accumulator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a.Add(s.normal)
	a.Add(s.slow)
	a.Add(s.errs)
}

// TraceFilter selects traces for List.
type TraceFilter struct {
	// Op keeps traces whose root is named Op — or that contain any span
	// named Op, so `op=search` finds both a bare engine `search` root
	// (sim, bench) and an HTTP `/v1/search` root with the engine span
	// underneath.
	Op string
	// MinDuration keeps traces at least this long.
	MinDuration time.Duration
	// Status is "", "ok" or "error".
	Status string
	// Limit caps the result length (0 → 100).
	Limit int
}

const defaultListLimit = 100

// List returns matching traces, newest first.
func (s *TraceStore) List(f TraceFilter) []*TraceData {
	limit := f.Limit
	if limit <= 0 {
		limit = defaultListLimit
	}
	all := s.snapshot()
	out := make([]*TraceData, 0, limit)
	for _, td := range all {
		if f.MinDuration > 0 && td.Duration < f.MinDuration {
			continue
		}
		if f.Status == "error" && !td.Errored() {
			continue
		}
		if f.Status == "ok" && td.Errored() {
			continue
		}
		if f.Op != "" && td.Root != f.Op && !td.HasSpan(f.Op) {
			continue
		}
		out = append(out, td)
		if len(out) == limit {
			break
		}
	}
	return out
}

// Slowest returns the n longest stored traces, longest first — the
// shape `xarbench -trace-out` and `xarsim -trace-out` dump for offline
// inspection.
func (s *TraceStore) Slowest(n int) []*TraceData {
	if n <= 0 {
		return nil
	}
	all := s.snapshot()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Duration > all[j].Duration })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Len returns the number of stored traces.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.normal.Len() + s.slow.Len() + s.errs.Len()
}

// snapshot collects every stored trace sorted newest-first.
func (s *TraceStore) snapshot() []*TraceData {
	s.mu.Lock()
	all := s.all(nil)
	s.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start.After(all[j].Start) })
	return all
}

// ForceError copies the stored trace with the given ID into the
// always-keep error ring. The invariant auditor files the offending
// ride's most recent trace here when a violation implicates it, so the
// trace survives normal-ring churn for the post-incident look. Reports
// whether the trace was found; a trace already in the error ring is not
// duplicated.
func (s *TraceStore) ForceError(id TraceID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := findTrace(s.errs.AppendTo(nil), id); ok {
		return true
	}
	td, ok := findTrace(s.all(nil), id)
	if ok {
		s.errs.Add(td)
	}
	return ok
}
