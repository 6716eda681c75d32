package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xar/internal/discretize"
	"xar/internal/memsize"
)

// DefaultShards is the shard count used when the caller passes 0: one.
// Stripes are keyed by ride ID, and a cluster's potential rides are spread
// over every stripe, so a search must visit all of them — N stripes multiply
// its list probes and lock pairs by N (each stripe has its own slot table,
// so the candidate set is reset and re-addressed per stripe too) and divide
// nothing for readers. What a stripe buys is write concurrency: with one,
// a writer waits out the searches in flight (each a few microseconds to a
// few hundred) and writers to different rides serialize.
const DefaultShards = 1

// Sharded stripes the ride index across N independently locked shards,
// keyed by ride ID (ride IDs are sequential, so id mod N is uniform).
// Each shard is a complete Index (its own ride map, slot table and cluster
// posting lists) restricted to the rides assigned to it — a slot means
// something only inside its stripe; the O(k²)
// cluster-neighbor table is built once and shared read-only by every
// shard. A search takes each shard's read lock only while reading that
// shard's posting lists; create/book/cancel/track lock exactly one shard
// (and compute their shortest paths outside it). N > 1 is for write-heavy
// many-core deployments, where index writes to different rides should
// not queue behind one another or behind a search of the whole fleet.
//
// Lock ordering: the engine never holds two shard locks at once (every
// operation is single-shard; searches visit shards sequentially or from
// independent workers, one lock each). ID allocation is a lock-free
// atomic counter.
type Sharded struct {
	disc   *discretize.Discretization
	cfg    Config
	shards []Shard
	nextID atomic.Int64
}

// Shard is one lock-striped slice of the ride population. The embedded
// RWMutex guards Ix: callers take RLock for reads (posting-list windows,
// support lookups, ride field reads) and Lock for mutations (insert,
// remove, reregister, advance).
type Shard struct {
	sync.RWMutex
	Ix *Index

	// Pad each shard to its own cache line(s): neighboring shards' locks
	// must not false-share under high core counts.
	_ [32]byte
}

// NewSharded builds an empty sharded index with n shards (n ≤ 0 →
// DefaultShards).
func NewSharded(disc *discretize.Discretization, cfg Config, n int) (*Sharded, error) {
	if cfg.AvgSpeed <= 0 {
		return nil, fmt.Errorf("index: AvgSpeed must be positive, got %v", cfg.AvgSpeed)
	}
	if n <= 0 {
		n = DefaultShards
	}
	neighbors := buildNeighbors(disc)
	s := &Sharded{disc: disc, cfg: cfg, shards: make([]Shard, n)}
	for i := range s.shards {
		s.shards[i].Ix = newWithNeighbors(disc, cfg, neighbors)
	}
	return s, nil
}

// Disc exposes the discretization the index was built over.
func (s *Sharded) Disc() *discretize.Discretization { return s.disc }

// NumShards returns the stripe count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardOf maps a ride ID to its shard number.
func (s *Sharded) ShardOf(id RideID) int {
	return int(uint64(id) % uint64(len(s.shards)))
}

// Shard returns stripe i for direct lock + index access.
func (s *Sharded) Shard(i int) *Shard { return &s.shards[i] }

// ShardFor returns the stripe owning ride id.
func (s *Sharded) ShardFor(id RideID) *Shard { return &s.shards[s.ShardOf(id)] }

// NextID allocates a fresh ride ID (lock-free; IDs are sequential, so a
// serial workload produces the same IDs a single Index would).
func (s *Sharded) NextID() RideID { return RideID(s.nextID.Add(1)) }

// NumRides sums the shard ride counts (each read under the shard's read
// lock; the total is a consistent-enough monitoring number, not a
// linearizable snapshot).
func (s *Sharded) NumRides() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.RLock()
		n += sh.Ix.NumRides()
		sh.RUnlock()
	}
	return n
}

// Snapshot returns a deep copy of ride id (nil if unknown), taken under
// the owning shard's read lock.
func (s *Sharded) Snapshot(id RideID) *Ride {
	sh := s.ShardFor(id)
	sh.RLock()
	defer sh.RUnlock()
	return sh.Ix.Ride(id).Clone()
}

// View returns the read-only aggregate view (memory measurement,
// invariant checking, diagnostics).
func (s *Sharded) View() View { return View{s: s} }

// View is a read-only window over a sharded index. Every method takes
// the shard locks it needs, so a View is safe to use concurrently with
// engine operations — unlike handing out the live *Index, which invited
// unsynchronized mutation. Live deep-size measurement goes through
// MeasureMem (per-shard read locks); the lock-free memsize.Of remains
// quiescent-only.
type View struct {
	s *Sharded
}

// MeasureMem implements memsize.Measurer: each shard's index is walked
// under that shard's read lock, one shard at a time, so measurement is
// safe against concurrent engine mutation and never blocks more than
// one stripe. The discretization the index points at is deliberately
// reached through this walk too — when the engine registers the road
// network and discretization as earlier components, the shared
// accumulator attributes those bytes there and the index share reduces
// to ride state (rides, posting lists, support records).
func (v View) MeasureMem(a *memsize.Accumulator) {
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		sh.RLock()
		a.Add(sh.Ix)
		sh.RUnlock()
	}
}

// NumShards returns the stripe count.
func (v View) NumShards() int { return v.s.NumShards() }

// NumRides returns the active ride count.
func (v View) NumRides() int { return v.s.NumRides() }

// ShardLen returns the ride count of stripe i (the shard-occupancy
// gauge's source).
func (v View) ShardLen(i int) int {
	sh := v.s.Shard(i)
	sh.RLock()
	defer sh.RUnlock()
	return sh.Ix.NumRides()
}

// Rides calls f for every registered ride until f returns false, one
// shard at a time under that shard's read lock, each shard in slot order
// — the same sequence every time the same operations built the index. f
// must treat the ride as read-only and must not call back into the index.
func (v View) Rides(f func(*Ride) bool) {
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		sh.RLock()
		stop := false
		sh.Ix.Rides(func(r *Ride) bool {
			if !f(r) {
				stop = true
				return false
			}
			return true
		})
		sh.RUnlock()
		if stop {
			return
		}
	}
}

// Stats merges the per-shard occupancy summaries. Clusters reports the
// discretization's cluster count once (not per shard); MaxListLen is the
// largest posting list of any single shard.
func (v View) Stats() Stats {
	var out Stats
	out.Clusters = v.s.disc.NumClusters()
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		sh.RLock()
		st := sh.Ix.Stats()
		sh.RUnlock()
		out.Rides += st.Rides
		out.FullRides += st.FullRides
		out.ListEntries += st.ListEntries
		out.SupportRecords += st.SupportRecords
		out.PassThroughRuns += st.PassThroughRuns
		if st.MaxListLen > out.MaxListLen {
			out.MaxListLen = st.MaxListLen
		}
	}
	return out
}

// CheckInvariants validates every shard's cross-structure invariants
// plus the sharding invariant itself: each ride is registered in the
// shard its ID maps to.
func (v View) CheckInvariants() error {
	for i := range v.s.shards {
		sh := &v.s.shards[i]
		sh.RLock()
		err := sh.Ix.CheckInvariants()
		if err == nil {
			sh.Ix.Rides(func(r *Ride) bool {
				if v.s.ShardOf(r.ID) != i {
					err = fmt.Errorf("index: ride %d registered in shard %d, belongs to %d", r.ID, i, v.s.ShardOf(r.ID))
					return false
				}
				return true
			})
		}
		sh.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// AuditShard captures stripe i's audit unit of work under a single
// acquisition of that stripe's read lock: deep clones of every resident
// ride (the auditor's per-ride schedule checks run on these, off-lock)
// plus the collect-all consistency findings of the live structures,
// including the shard-ownership check. One lock hold means the snapshot
// and the findings describe the same instant; separate shards are
// audited at separate instants, which is exactly the consistency the
// engine itself guarantees (no operation spans two shards).
func (v View) AuditShard(i int) (rides []*Ride, incs []Inconsistency) {
	sh := v.s.Shard(i)
	sh.RLock()
	defer sh.RUnlock()
	rides = make([]*Ride, 0, sh.Ix.NumRides())
	sh.Ix.Rides(func(r *Ride) bool {
		rides = append(rides, r.Clone())
		return true
	})
	incs = sh.Ix.Inconsistencies(nil)
	sh.Ix.Rides(func(r *Ride) bool {
		if v.s.ShardOf(r.ID) != i {
			incs = append(incs, Inconsistency{Ride: r.ID, Cluster: -1,
				Detail: fmt.Sprintf("registered in shard %d, belongs to %d", i, v.s.ShardOf(r.ID))})
		}
		return true
	})
	return rides, incs
}
