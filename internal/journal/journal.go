// Package journal records ride-lifecycle events into bounded ring
// storage: every ride keeps its most recent events keyed by ride ID, and
// a global tail ring keeps the most recent events across the fleet. The
// journal is the system's flight log of *what happened to each ride* —
// created, matched, booked, spliced, tracked, completed — with trace-ID
// cross-links into the span store, so a timeline answers "why does this
// ride look like this" and a trace answers "why was it slow".
//
// Memory is bounded by construction: at most MaxRides per-ride rings of
// at most PerRideCapacity events each plus TailCapacity tail slots, all
// overwrite-oldest. The tail is allocated up front; a ride's ring grows
// with its events (most rides hold a handful), so a fleet of short
// timelines costs what it holds. Terminal rides (completed) are evicted
// before live ones when the ride table fills, so an active fleet's
// timelines survive a churn of finished rides.
//
// Recording takes one journal-wide mutex for a few slice writes and
// never blocks on consumers; the auditor (internal/audit) replays
// per-ride sequences to verify journal causality invariants.
package journal

import (
	"sync"
	"time"

	"xar/internal/memsize"
	"xar/internal/telemetry"
)

// EventType names one ride-lifecycle transition.
type EventType string

// The ride-lifecycle event types, in rough lifecycle order.
const (
	// Created: the offer was registered and indexed.
	Created EventType = "created"
	// SearchCandidate: the ride surfaced as a match of a (sampled)
	// search. Advisory — emitted only for metrics-sampled searches, so
	// its absence proves nothing.
	SearchCandidate EventType = "search_candidate"
	// MatchRejected: the ride was a candidate of a (sampled) search but a
	// funnel filter eliminated it; Note carries the binding constraint
	// (the funnel stage name). Advisory, like SearchCandidate.
	MatchRejected EventType = "match_rejected"
	// Booked: a rider's booking was confirmed on the ride.
	Booked EventType = "booked"
	// SpliceCommitted: the booking's route splice was applied (new
	// route, via-points, ETAs and budget committed under the shard lock).
	SpliceCommitted EventType = "splice_committed"
	// BookConflictRetried: an optimistic booking commit found the ride
	// mutated and retried.
	BookConflictRetried EventType = "book_conflict_retried"
	// Cancelled: a confirmed booking was cancelled off the ride.
	Cancelled EventType = "cancelled"
	// PickedUp / DroppedOff: tracking advanced the vehicle past a
	// booking's pickup / drop-off via-point.
	PickedUp   EventType = "picked_up"
	DroppedOff EventType = "dropped_off"
	// Completed: the ride finished and left the index. Terminal.
	Completed EventType = "completed"
)

// Types returns all event types (counter registration, query validation).
func Types() []EventType {
	return []EventType{
		Created, SearchCandidate, MatchRejected, Booked, SpliceCommitted,
		BookConflictRetried, Cancelled, PickedUp, DroppedOff, Completed,
	}
}

// KnownType reports whether t is a defined event type.
func KnownType(t EventType) bool {
	for _, k := range Types() {
		if t == k {
			return true
		}
	}
	return false
}

// Event is one journal record. Fields are fixed-size scalars plus two
// short strings, so a ring slot costs well under 100 bytes amortized.
type Event struct {
	// Seq is the journal-global sequence number: a total order over all
	// recorded events, assigned under the journal's lock at Record time,
	// so every ring holds its events in ascending Seq.
	Seq  uint64    `json:"seq"`
	Type EventType `json:"type"`
	Ride int64     `json:"ride_id"`
	// Unix is the wall-clock record time in seconds. Zero on input is
	// filled in by Record.
	Unix float64 `json:"unix"`
	// TraceID cross-links the event to the span tree of the operation
	// that caused it (GET /v1/traces/{id}), when that operation was
	// trace-recorded.
	TraceID string `json:"trace_id,omitempty"`
	// Value carries the event's principal quantity in meters — the
	// detour limit for created, the exact splice detour for booked /
	// splice_committed, the attempt number for book_conflict_retried,
	// the via ETA for picked_up / dropped_off.
	Value float64 `json:"value,omitempty"`
	// Note is a short free-form annotation ("seats=4", "pu=117 do=349").
	Note string `json:"note,omitempty"`
}

// Sizing defaults.
const (
	DefaultPerRideCapacity = 32
	DefaultMaxRides        = 4096
	DefaultTailCapacity    = 4096
)

// Config sizes a Journal.
type Config struct {
	// PerRideCapacity is the most events a ride's ring holds (0 → 32).
	PerRideCapacity int
	// MaxRides bounds the number of per-ride rings retained (0 → 4096).
	// When full, terminal (completed) rides are evicted first, then the
	// oldest ride.
	MaxRides int
	// TailCapacity is the global tail's capacity: Tail sees the most
	// recent TailCapacity events fleet-wide (0 → 4096).
	TailCapacity int
	// Registry, when non-nil, registers the xar_ride_events_total{type}
	// counters (one per event type, eagerly, so a fresh process exposes
	// every series at zero).
	Registry *telemetry.Registry
}

// Journal is the ride-lifecycle event log. Safe for concurrent use; a
// nil *Journal is a valid no-op recorder (Record returns immediately).
type Journal struct {
	perRideCap int
	maxRides   int
	counters   map[EventType]*telemetry.Counter

	// mu guards everything below. Recording holds it for the sequence
	// number, one ride-ring slot and one tail slot.
	mu        sync.Mutex
	seq       uint64
	rides     map[int64]*rideLog
	order     []int64 // first-event order, scanned for eviction
	terminals int     // rides in the table with a Completed event
	tail      telemetry.Ring[Event]
}

// rideLog is one ride's event ring: one slot at its first event,
// doubled whenever it fills, up to PerRideCapacity; from then on it
// overwrites the oldest event.
type rideLog struct {
	telemetry.Ring[Event]
	terminal bool // a Completed event was recorded
}

// New builds a journal.
func New(cfg Config) *Journal {
	if cfg.PerRideCapacity <= 0 {
		cfg.PerRideCapacity = DefaultPerRideCapacity
	}
	if cfg.MaxRides <= 0 {
		cfg.MaxRides = DefaultMaxRides
	}
	if cfg.TailCapacity <= 0 {
		cfg.TailCapacity = DefaultTailCapacity
	}
	j := &Journal{
		perRideCap: cfg.PerRideCapacity,
		maxRides:   cfg.MaxRides,
		rides:      make(map[int64]*rideLog),
		tail:       telemetry.NewRing(make([]Event, cfg.TailCapacity)),
	}
	if cfg.Registry != nil {
		j.counters = make(map[EventType]*telemetry.Counter, len(Types()))
		for _, t := range Types() {
			j.counters[t] = cfg.Registry.Counter("xar_ride_events_total",
				"Ride-lifecycle events recorded by the journal, by event type.",
				telemetry.L("type", string(t)))
		}
	}
	return j
}

// MeasureMem implements memsize.Measurer: the per-ride ring table, the
// eviction order and the tail ring, walked under the journal's mutex.
// The counters map is immutable after New and needs no lock.
// Nil-receiver-safe like Record.
func (j *Journal) MeasureMem(a *memsize.Accumulator) {
	if j == nil {
		return
	}
	a.Add(j.counters)
	j.mu.Lock()
	defer j.mu.Unlock()
	a.Add(j.rides)
	a.Add(j.order)
	a.Add(j.tail)
}

// Record files one event: assigns its sequence number, stamps the wall
// clock when Unix is zero, bumps the type's counter, and appends to the
// ride's ring and the global tail. Nil-receiver-safe — an engine without
// a journal pays one branch.
func (j *Journal) Record(ev Event) {
	if j == nil {
		return
	}
	if ev.Unix == 0 {
		ev.Unix = float64(time.Now().UnixNano()) / 1e9
	}
	if c := j.counters[ev.Type]; c != nil {
		c.Inc()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev.Seq = j.seq
	l := j.rides[ev.Ride]
	if l == nil {
		if len(j.rides) >= j.maxRides {
			j.evict()
		}
		l = &rideLog{Ring: telemetry.NewRing(make([]Event, 1))}
		j.rides[ev.Ride] = l
		j.order = append(j.order, ev.Ride)
	} else if n := l.Cap(); l.Len() == n && n < j.perRideCap {
		l.Grow(make([]Event, min(2*n, j.perRideCap)))
	}
	l.Add(ev)
	if ev.Type == Completed && !l.terminal {
		l.terminal = true
		j.terminals++
	}
	j.tail.Add(ev)
}

// evict drops one ride log to make room: the oldest terminal ride if any
// (finished rides' timelines are kept only as long as space allows),
// else the oldest ride outright. The terminal count spares the scan when
// no ride has finished. Called with j.mu held.
func (j *Journal) evict() {
	victim := 0
	if j.terminals > 0 {
		for i, id := range j.order {
			if j.rides[id].terminal {
				victim = i
				j.terminals--
				break
			}
		}
	}
	delete(j.rides, j.order[victim])
	j.order = append(j.order[:victim], j.order[victim+1:]...)
}

// Timeline returns the retained events of one ride in ascending sequence
// order, or nil when the ride has no retained events. Nil-receiver-safe.
func (j *Journal) Timeline(ride int64) []Event {
	evs, _ := j.timeline(ride)
	return evs
}

// timeline additionally reports whether the ride's ring overwrote an
// event — the auditor needs that to avoid false "before created"
// causality findings on long-lived rides.
func (j *Journal) timeline(ride int64) ([]Event, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	l := j.rides[ride]
	if l == nil {
		return nil, false
	}
	return l.AppendTo(nil), l.Overwritten()
}

// LastTraceID returns the most recent non-empty trace ID in the ride's
// timeline ("" when none) — the cross-link the auditor follows to force
// an offending ride's trace into the error ring.
func (j *Journal) LastTraceID(ride int64) string {
	evs := j.Timeline(ride)
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].TraceID != "" {
			return evs[i].TraceID
		}
	}
	return ""
}

// PerRide calls f once per tracked ride with its retained events
// (ascending Seq) and whether the ride's ring overwrote an event, until
// f returns false. The ride set is snapshotted under the lock and f runs
// outside it, so f may query the journal. Rides are visited in
// first-event order.
func (j *Journal) PerRide(f func(ride int64, events []Event, wrapped bool) bool) {
	if j == nil {
		return
	}
	j.mu.Lock()
	ids := append([]int64(nil), j.order...)
	j.mu.Unlock()
	for _, id := range ids {
		evs, wrapped := j.timeline(id)
		if evs == nil {
			continue // evicted between snapshot and read
		}
		if !f(id, evs, wrapped) {
			return
		}
	}
}

// TailFilter selects events for Tail.
type TailFilter struct {
	// Type keeps only events of this type ("" = all).
	Type EventType
	// SinceSeq keeps only events with Seq > SinceSeq (poll cursor).
	SinceSeq uint64
	// Limit caps the result to the most recent Limit matching events
	// (0 → 100).
	Limit int
}

const defaultTailLimit = 100

// Tail returns the most recent matching events from the tail ring,
// ascending by Seq. Nil-receiver-safe.
func (j *Journal) Tail(f TailFilter) []Event {
	if j == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = defaultTailLimit
	}
	j.mu.Lock()
	all := j.tail.AppendTo(nil)
	j.mu.Unlock()
	out := make([]Event, 0, limit)
	for _, ev := range all {
		if f.Type != "" && ev.Type != f.Type {
			continue
		}
		if ev.Seq <= f.SinceSeq {
			continue
		}
		out = append(out, ev)
	}
	if len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// LastSeq returns the highest sequence number assigned so far — the
// cursor a poller passes back as TailFilter.SinceSeq. Nil-receiver-safe.
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Stats summarizes journal occupancy.
type Stats struct {
	// Rides is the number of per-ride rings currently retained.
	Rides int `json:"rides"`
	// Events is the total number of events ever recorded (== LastSeq).
	Events uint64 `json:"events"`
}

// Stats reports current occupancy. Nil-receiver-safe.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{Rides: len(j.rides), Events: j.seq}
}
