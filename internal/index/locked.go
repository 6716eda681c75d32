package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xar/internal/discretize"
	"xar/internal/memsize"
)

// Locked is the ride index as the engine holds it: the one Index behind
// one RWMutex. Callers take RLock for reads (posting-list windows, support
// lookups, ride field reads) and Lock for mutations (insert, remove,
// reregister, advance), and compute their shortest paths outside either.
// ID allocation is a lock-free atomic counter, so an ID can be handed out
// (and journaled) before the ride is inserted. The zero lock and counter
// are ready to use: &Locked{Ix: ix} is the constructor.
type Locked struct {
	sync.RWMutex
	Ix *Index

	nextID atomic.Int64
}

// NextID allocates a fresh ride ID (lock-free; IDs are sequential, so a
// serial workload produces the same IDs a bare Index would).
func (l *Locked) NextID() RideID { return RideID(l.nextID.Add(1)) }

// NumRides returns the active ride count.
func (l *Locked) NumRides() int {
	l.RLock()
	defer l.RUnlock()
	return l.Ix.NumRides()
}

// Snapshot returns a deep copy of ride id (nil if unknown), taken under
// the read lock.
func (l *Locked) Snapshot(id RideID) *Ride {
	l.RLock()
	defer l.RUnlock()
	return l.Ix.Ride(id).Clone()
}

// View returns the read-only view (memory measurement, invariant
// checking, diagnostics).
func (l *Locked) View() View { return View{l: l} }

// View is a read-only window over a locked index. Every method takes the
// read lock for as long as it reads, so a View is safe to use concurrently
// with engine operations — unlike handing out the live *Index, which
// invited unsynchronized mutation. Live deep-size measurement goes through
// MeasureMem; the lock-free memsize.Of remains quiescent-only.
type View struct {
	l *Locked
}

// MeasureMem implements memsize.Measurer: the index is walked under its
// read lock, so measurement is safe against concurrent engine mutation.
// The discretization the index points at is deliberately reached through
// this walk too — when the engine registers the road network and
// discretization as earlier components, the shared accumulator attributes
// those bytes there and the index share reduces to ride state (rides,
// posting lists, support records).
func (v View) MeasureMem(a *memsize.Accumulator) {
	v.l.RLock()
	defer v.l.RUnlock()
	a.Add(v.l.Ix)
}

// Rides calls f for every registered ride until f returns false, under
// the read lock, in slot order — the same sequence every time the same
// operations built the index. f must treat the ride as read-only and must
// not call back into the index.
func (v View) Rides(f func(*Ride) bool) {
	v.l.RLock()
	defer v.l.RUnlock()
	v.l.Ix.Rides(f)
}

// Stats is the occupancy summary of one instant: every field is read
// under the same read-lock hold.
func (v View) Stats() Stats {
	v.l.RLock()
	defer v.l.RUnlock()
	return v.l.Ix.Stats()
}

// CheckInvariants validates the index's cross-structure invariants.
func (v View) CheckInvariants() error {
	v.l.RLock()
	defer v.l.RUnlock()
	return v.l.Ix.CheckInvariants()
}

// Audit captures the auditor's unit of work under a single acquisition of
// the read lock: deep clones of every resident ride (the auditor's
// per-ride schedule checks run on these, off-lock) plus the collect-all
// consistency findings of the live structures. One lock hold means the
// snapshot and the findings describe the same instant.
func (v View) Audit() (rides []*Ride, incs []Inconsistency) {
	v.l.RLock()
	defer v.l.RUnlock()
	rides = make([]*Ride, 0, v.l.Ix.NumRides())
	v.l.Ix.Rides(func(r *Ride) bool {
		rides = append(rides, r.Clone())
		return true
	})
	return rides, v.l.Ix.Inconsistencies(nil)
}

// What follows is not API: it is the set of names benchmark/probes.go and
// benchmark/httpserver.go compile against from when rides were striped
// over N indexes by ID (core.Config.UseALTPaths is the one other such
// name). This repository's PRs may not edit benchmark/, so each stays as
// the thinnest thing that compiles over the one locked index, nothing
// else calls them, and they leave with those two files' next revision.
type (
	Sharded = Locked
	Shard   = Locked
)

// NewSharded builds an empty locked index. n is what the probe passes
// back from NumShards; more than one stripe is an error, not a request
// silently served by one.
func NewSharded(disc *discretize.Discretization, cfg Config, n int) (*Sharded, error) {
	if n > 1 {
		return nil, fmt.Errorf("index: %d shards requested, but ride-ID striping was removed: the index is one Index behind one lock", n)
	}
	ix, err := New(disc, cfg)
	if err != nil {
		return nil, err
	}
	return &Locked{Ix: ix}, nil
}

func (l *Locked) Shard(int) *Shard       { return l }
func (l *Locked) ShardFor(RideID) *Shard { return l }
func (l *Locked) NumShards() int         { return 1 }
func (v View) NumShards() int            { return 1 }
