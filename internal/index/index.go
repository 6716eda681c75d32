package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"xar/internal/discretize"
	"xar/internal/roadnet"
)

// Config tunes the index.
type Config struct {
	// AvgSpeed (m/s) converts cluster distances into the ETA estimates
	// attached to reachable clusters (pass-through ETAs come from the
	// route itself).
	AvgSpeed float64
	// LinearWindowScan replaces the binary searches of a window read by a
	// scan of the whole list (ablation).
	LinearWindowScan bool
	// NoReachablePrecompute disables the reachable-cluster expansion at
	// registration time (ablation): only pass-through clusters are
	// indexed, so searches only see rides passing directly through a
	// walkable cluster.
	NoReachablePrecompute bool
}

// DefaultConfig returns production settings.
func DefaultConfig() Config {
	return Config{AvgSpeed: 7.0}
}

// Index is the XAR in-memory ride index built over a region
// discretization. Not safe for concurrent use (see package comment).
type Index struct {
	cfg  Config
	disc *discretize.Discretization

	rides    map[RideID]*Ride
	clusters []clusterList

	// neighbors[c] lists all clusters sorted by ascending distance from
	// c, so "clusters within d of C" is a prefix.
	neighbors [][]neighborEntry

	nextID RideID

	// supBuf and supOff are register's scratch for a ride's support
	// table (reused across calls; the index has a single writer): the
	// records in emission order, and per cluster their count, then their
	// group's write position (all zero between calls).
	supBuf []Support
	supOff []int32
}

type neighborEntry struct {
	Cluster int32
	Dist    float64
}

// New builds an empty index over disc.
func New(disc *discretize.Discretization, cfg Config) (*Index, error) {
	if cfg.AvgSpeed <= 0 {
		return nil, fmt.Errorf("index: AvgSpeed must be positive, got %v", cfg.AvgSpeed)
	}
	return newWithNeighbors(disc, cfg, buildNeighbors(disc)), nil
}

// buildNeighbors computes the per-cluster sorted neighbor table. The
// table is immutable after construction and O(k²), so sharded indexes
// build it once and share it read-only across all shards.
func buildNeighbors(disc *discretize.Discretization) [][]neighborEntry {
	k := disc.NumClusters()
	neighbors := make([][]neighborEntry, k)
	for c := 0; c < k; c++ {
		row := make([]neighborEntry, k)
		for o := range row {
			row[o] = neighborEntry{Cluster: int32(o), Dist: disc.ClusterDist(c, o)}
		}
		slices.SortFunc(row, func(a, b neighborEntry) int {
			switch {
			case a.Dist < b.Dist:
				return -1
			case a.Dist > b.Dist:
				return 1
			}
			return cmp.Compare(a.Cluster, b.Cluster)
		})
		neighbors[c] = row
	}
	return neighbors
}

// newWithNeighbors assembles an empty index around a prebuilt (possibly
// shared) neighbor table.
func newWithNeighbors(disc *discretize.Discretization, cfg Config, neighbors [][]neighborEntry) *Index {
	return &Index{
		cfg:       cfg,
		disc:      disc,
		rides:     make(map[RideID]*Ride),
		clusters:  make([]clusterList, disc.NumClusters()),
		neighbors: neighbors,
		supOff:    make([]int32, disc.NumClusters()),
	}
}

// Disc exposes the discretization the index was built over.
func (ix *Index) Disc() *discretize.Discretization { return ix.disc }

// NumRides returns the number of registered rides.
func (ix *Index) NumRides() int { return len(ix.rides) }

// Ride returns a registered ride, or nil.
func (ix *Index) Ride(id RideID) *Ride { return ix.rides[id] }

// Rides calls f for every registered ride until f returns false.
func (ix *Index) Rides(f func(*Ride) bool) {
	for _, r := range ix.rides {
		if !f(r) {
			return
		}
	}
}

// NextID allocates a fresh ride ID.
func (ix *Index) NextID() RideID {
	ix.nextID++
	return ix.nextID
}

// Insert registers a fully-populated ride (ID, route, route ETAs,
// via-points, detour limit set by the caller): it computes the ride's
// pass-through clusters per segment, the reachable clusters under the
// paper's detour test, and adds the ride to every affected cluster's
// potential-ride lists.
func (ix *Index) Insert(r *Ride) error {
	if r == nil {
		return fmt.Errorf("index: nil ride")
	}
	if _, dup := ix.rides[r.ID]; dup {
		return fmt.Errorf("index: duplicate ride ID %d", r.ID)
	}
	if len(r.Route) < 2 || len(r.RouteETA) != len(r.Route) {
		return fmt.Errorf("index: ride %d has inconsistent route (%d nodes, %d ETAs)", r.ID, len(r.Route), len(r.RouteETA))
	}
	if len(r.Via) < 2 {
		return fmt.Errorf("index: ride %d has %d via-points, need >= 2", r.ID, len(r.Via))
	}
	if r.DetourLimit < 0 {
		return fmt.Errorf("index: ride %d has negative detour limit", r.ID)
	}
	ix.register(r)
	ix.rides[r.ID] = r
	return nil
}

// Remove unregisters a ride entirely (completed or cancelled).
func (ix *Index) Remove(id RideID) bool {
	r, ok := ix.rides[id]
	if !ok {
		return false
	}
	ix.unregister(r)
	delete(ix.rides, id)
	return true
}

// Reregister rebuilds a ride's cluster registrations after its route,
// via-points or detour limit changed (booking confirmed, cancellation).
// It bumps the ride's revision counter: optimistic engine commits detect
// concurrent mutations by comparing Rev.
func (ix *Index) Reregister(r *Ride) error {
	if _, ok := ix.rides[r.ID]; !ok {
		return fmt.Errorf("index: ride %d not registered", r.ID)
	}
	r.Rev++
	ix.unregister(r)
	ix.register(r)
	return nil
}

// register computes pt entries and the support table and fills cluster
// lists — of a ride with a free seat: a full one is nobody's potential ride
// (Definition 1) and is in no list until a cancellation re-registers it.
func (ix *Index) register(r *Ride) {
	r.pt, r.support = r.pt[:0], nil
	if r.SeatsAvail <= 0 {
		return
	}

	// 1. Pass-through clusters: walk the route, map node → cluster, and
	// emit one entry per maximal run of equal cluster within a segment.
	for i := r.Progress; i < len(r.Route); i++ {
		c := ix.disc.ClusterOfNode(r.Route[i])
		if c < 0 {
			continue
		}
		seg := int32(r.segmentOf(i))
		if n := len(r.pt); n > 0 && r.pt[n-1].Cluster == int32(c) && r.pt[n-1].Seg == seg && int(r.pt[n-1].LastIdx) == i-1 {
			r.pt[n-1].LastIdx = int32(i)
			continue
		}
		r.pt = append(r.pt, ptEntry{
			Cluster:  int32(c),
			Seg:      seg,
			FirstIdx: int32(i),
			LastIdx:  int32(i),
			ETA:      r.RouteETA[i],
		})
	}

	// 2. Reachable clusters per pass-through entry, with the detour test
	//    d(C,C') + d(C',v_{i+1}) − d(C,v_{i+1}) ≤ d  (§VI).
	// Distances to the via-point are approximated by distances to the
	// via-point's cluster, consistent with the ε error budget; via-points
	// outside any cluster skip the refinement (conservative superset —
	// the booking-time shortest paths remain the ground truth). Supports
	// collect in the index's build buffer in ascending route position,
	// each (cluster, position) at most once, counted per cluster.
	buf, off := ix.supBuf[:0], ix.supOff
	for pi := range r.pt {
		e := &r.pt[pi]
		c := e.Cluster
		buf = append(buf, Support{Cluster: c, Order: int32(pi), Seg: e.Seg, ETA: e.ETA})
		off[c]++

		if ix.cfg.NoReachablePrecompute {
			continue
		}
		viaCluster := int32(-1)
		if int(e.Seg)+1 < len(r.Via) {
			viaCluster = int32(ix.disc.ClusterOfNode(r.Via[e.Seg+1].Node))
		}
		for _, nb := range ix.neighbors[c] {
			if nb.Dist > r.DetourLimit {
				break // sorted: everything after is farther
			}
			if nb.Cluster == c {
				continue
			}
			detour := nb.Dist
			if viaCluster >= 0 {
				dCVia := ix.disc.ClusterDist(int(c), int(viaCluster))
				dC2Via := ix.disc.ClusterDist(int(nb.Cluster), int(viaCluster))
				detour = nb.Dist + dC2Via - dCVia
				if detour < 0 {
					detour = 0
				}
				if detour > r.DetourLimit {
					continue
				}
			}
			eta := e.ETA + nb.Dist/ix.cfg.AvgSpeed
			buf = append(buf, Support{Cluster: nb.Cluster, Order: int32(pi), Seg: e.Seg, Detour: detour, ETA: eta})
			off[nb.Cluster]++
		}
	}
	ix.supBuf = buf

	// 3. Group instead of sort: a counting pass lays the clusters' groups
	// out in ascending cluster order in the ride's exact-size table, and
	// a stable scatter fills each in ascending route position.
	sup := make([]Support, len(buf))
	next := int32(0)
	for c, n := range off {
		if n > 0 { // an absent cluster's slot stays zero
			off[c] = next
			next += n
		}
	}
	for _, s := range buf {
		sup[off[s.Cluster]] = s
		off[s.Cluster]++
	}
	r.support = sup

	// 4. Insertion-sort each (small) group by detour — equal detours stay
	// in route order, which makes it the order compareSupports defines —
	// and list the ride under the cluster at its earliest support ETA.
	for i := 0; i < len(sup); {
		c, start, eta := sup[i].Cluster, i, sup[i].ETA
		for i++; i < len(sup) && sup[i].Cluster == c; i++ {
			s := sup[i]
			eta = min(eta, s.ETA)
			j := i
			for ; j > start && sup[j-1].Detour > s.Detour; j-- {
				sup[j] = sup[j-1]
			}
			sup[j] = s
		}
		off[c] = 0
		ix.clusters[c].add(r.ID, eta)
	}
}

// unregister removes the ride from all cluster lists and clears its
// registration state.
func (ix *Index) unregister(r *Ride) {
	for sup := r.support; len(sup) > 0; {
		c, n := sup[0].Cluster, 1
		for n < len(sup) && sup[n].Cluster == c {
			n++
		}
		eta, _ := minETA(sup[:n])
		ix.clusters[c].remove(r.ID, eta)
		sup = sup[n:]
	}
	r.support = nil
	r.pt = nil
}

// Advance implements ride tracking (§VIII-A): the vehicle has progressed
// to route index pos. Pass-through entries entirely behind pos become
// obsolete; clusters that lose all their valid supports drop the ride
// from their potential lists; clusters with remaining supports get their
// ETA refreshed.
func (ix *Index) Advance(id RideID, pos int) error {
	r, ok := ix.rides[id]
	if !ok {
		return fmt.Errorf("index: ride %d not registered", id)
	}
	if pos < r.Progress {
		return fmt.Errorf("index: ride %d cannot move backwards (%d < %d)", id, pos, r.Progress)
	}
	if pos >= len(r.Route) {
		pos = len(r.Route) - 1
	}
	if pos != r.Progress {
		r.Rev++ // progress invalidates in-flight optimistic bookings
	}
	r.Progress = pos

	// Step 1: mark newly crossed pass-through entries.
	crossed := false
	for pi := range r.pt {
		e := &r.pt[pi]
		if !e.Crossed && int(e.LastIdx) < pos {
			e.Crossed = true
			crossed = true
		}
	}
	if !crossed {
		return nil
	}

	// Step 2: compact the support table in place, cluster group by
	// cluster group, dropping the supports of crossed entries (the order
	// of the kept ones is unchanged). A cluster left with none drops the
	// ride from its list; one whose earliest support went gets its ETA
	// refreshed.
	sup := r.support
	w := 0
	for i := 0; i < len(sup); {
		c, start := sup[i].Cluster, w
		was, now := math.Inf(1), math.Inf(1)
		for ; i < len(sup) && sup[i].Cluster == c; i++ {
			was = min(was, sup[i].ETA)
			if r.pt[sup[i].Order].Crossed {
				continue
			}
			now = min(now, sup[i].ETA)
			sup[w] = sup[i]
			w++
		}
		switch {
		case w == start:
			ix.clusters[c].remove(r.ID, was)
		case now != was:
			ix.clusters[c].updateETA(r.ID, was, now)
		}
	}
	r.support = sup[:w]
	// Step 3 (remove crossed entries from the pass-through list) is
	// implicit: entries stay marked Crossed and PassThroughClusters
	// filters them out.
	return nil
}

// PotentialRides appends to dst the ⟨ride, ETA⟩ tuples of cluster c whose
// estimated arrival falls in [t1, t2] and returns the extended slice —
// the O(log n) retrieval step of the optimized search.
func (ix *Index) PotentialRides(c int, t1, t2 float64, dst []RideID) []RideID {
	if c < 0 || c >= len(ix.clusters) {
		return dst
	}
	if ix.cfg.LinearWindowScan {
		return ix.clusters[c].scanIDs(t1, t2, dst)
	}
	return ix.clusters[c].windowIDs(t1, t2, dst)
}

// HasPotentialRide reports whether ride id is in cluster c's potential
// list, with its ETA (diagnostics and tests; no search calls it): the
// ride's support table names the ETA, the list confirms the tuple.
func (ix *Index) HasPotentialRide(c int, id RideID) (float64, bool) {
	r := ix.rides[id]
	if r == nil || c < 0 || c >= len(ix.clusters) {
		return 0, false
	}
	eta, ok := r.ListETA(c)
	return eta, ok && ix.clusters[c].has(id, eta)
}

// ClusterListLen reports the potential-ride count of cluster c
// (diagnostics, memory accounting).
func (ix *Index) ClusterListLen(c int) int {
	if c < 0 || c >= len(ix.clusters) {
		return 0
	}
	return ix.clusters[c].len()
}

// Stats summarizes the index's occupancy — the quantities behind the
// paper's memory experiment (Figure 3c): how many cluster-list entries
// and support records the current fleet induces.
type Stats struct {
	Rides           int
	FullRides       int // registered rides with no free seat: in no list
	Clusters        int
	ListEntries     int // Σ per-cluster potential-ride tuples
	SupportRecords  int // Σ per-ride (cluster → pass-through) refs
	PassThroughRuns int // Σ per-ride pass-through entries
	MaxListLen      int // largest single cluster list
}

// Stats computes current occupancy in O(rides + clusters).
func (ix *Index) Stats() Stats {
	s := Stats{Rides: len(ix.rides), Clusters: len(ix.clusters)}
	for c := range ix.clusters {
		n := ix.clusters[c].len()
		s.ListEntries += n
		if n > s.MaxListLen {
			s.MaxListLen = n
		}
	}
	for _, r := range ix.rides {
		s.PassThroughRuns += len(r.pt)
		s.SupportRecords += len(r.support)
		if r.SeatsAvail <= 0 {
			s.FullRides++
		}
	}
	return s
}

// Inconsistency is one index↔schedule consistency finding: a ride whose
// cluster-list membership disagrees with what its schedule implies (or a
// structural defect of a cluster list or support table itself). Cluster
// is -1 when the finding is not tied to a single cluster.
type Inconsistency struct {
	Ride    RideID
	Cluster int
	Detail  string
}

// CheckInvariants reports the first finding of Inconsistencies as an
// error; tests and failure-injection suites call it after random
// operation sequences.
func (ix *Index) CheckInvariants() error {
	if incs := ix.Inconsistencies(nil); len(incs) > 0 {
		return fmt.Errorf("index: ride %d, cluster %d: %s", incs[0].Ride, incs[0].Cluster, incs[0].Detail)
	}
	return nil
}

// Inconsistencies appends every violated cross-structure invariant to
// dst and returns it — the online auditor wants the full damage of a
// sweep, not the first symptom:
//
//   - a cluster list's blocks are non-empty, within the cap, strictly
//     ascending by (ETA, ride) across the whole list, and count len();
//   - a ride's support table is sorted by (cluster, detour, position) and
//     every entry points at a live (non-crossed) pass-through entry;
//   - a ride appears in a cluster list iff it has ≥1 support there;
//   - a ride is listed under exactly its minimum support ETA (the key
//     unregister and Advance find it by);
//   - a ride has supports (is listed) iff it has a free seat and route ahead.
func (ix *Index) Inconsistencies(dst []Inconsistency) []Inconsistency {
	// Keyed lookups need a well-formed list; a damaged one is reported as
	// such and left out of the membership check below.
	damaged := map[int32]bool{}
	for c := range ix.clusters {
		l := &ix.clusters[c]
		if ride, defect := l.structuralDefect(); defect != "" {
			dst = append(dst, Inconsistency{Ride: ride, Cluster: c, Detail: defect})
			damaged[int32(c)] = true
		}
		for _, b := range l.blocks {
			for _, e := range b {
				r, ok := ix.rides[e.Ride]
				if !ok {
					dst = append(dst, Inconsistency{Ride: e.Ride, Cluster: c, Detail: "listed ride is not registered"})
					continue
				}
				best, ok := r.ListETA(c)
				if !ok {
					dst = append(dst, Inconsistency{Ride: e.Ride, Cluster: c, Detail: "listed ride has no supports here"})
				} else if best != e.ETA {
					dst = append(dst, Inconsistency{Ride: e.Ride, Cluster: c, Detail: fmt.Sprintf("listed ETA %v != min support ETA %v", e.ETA, best)})
				}
			}
		}
	}
	inCluster := func(n roadnet.NodeID) bool { return ix.disc.ClusterOfNode(n) >= 0 }
	for id, r := range ix.rides {
		ahead := r.Route[min(r.Progress, len(r.Route)):]
		switch {
		case r.SeatsAvail <= 0 && len(r.support) > 0:
			dst = append(dst, Inconsistency{Ride: id, Cluster: -1, Detail: "full ride is listed / still has supports"})
		case r.SeatsAvail > 0 && len(r.support) == 0 && slices.ContainsFunc(ahead, inCluster):
			dst = append(dst, Inconsistency{Ride: id, Cluster: -1, Detail: "ride with a free seat and uncrossed route has no supports"})
		}
		for i, s := range r.support {
			if i > 0 && compareSupports(r.support[i-1], s) >= 0 {
				dst = append(dst, Inconsistency{Ride: id, Cluster: int(s.Cluster), Detail: fmt.Sprintf("support table order violated at %d", i)})
			}
			if int(s.Order) >= len(r.pt) || r.pt[s.Order].Crossed || r.pt[s.Order].Seg != s.Seg {
				dst = append(dst, Inconsistency{Ride: id, Cluster: int(s.Cluster), Detail: fmt.Sprintf("support %d does not point at a live pass-through", i)})
			}
			if (i == 0 || s.Cluster != r.support[i-1].Cluster) && !damaged[s.Cluster] {
				if _, ok := ix.HasPotentialRide(int(s.Cluster), id); !ok {
					dst = append(dst, Inconsistency{Ride: id, Cluster: int(s.Cluster), Detail: "ride's schedule supports this cluster but the list omits it"})
				}
			}
		}
	}
	return dst
}

// DropFromClusterList removes ride id from cluster c's potential-ride
// list while leaving the ride's support records in place — a deliberate
// index↔schedule inconsistency. It exists solely for auditor
// fault-injection drills ("drop a ride from a cluster list behind the
// engine's back"); nothing in the serving path calls it. Reports whether
// the ride was listed.
func (ix *Index) DropFromClusterList(c int, id RideID) bool {
	eta, ok := ix.HasPotentialRide(c, id)
	return ok && ix.clusters[c].remove(id, eta)
}
