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

	// rides finds a ride by ID (Ride, book, cancel, track); slots holds
	// the same rides by slot, which is how posting lists name them and
	// how a search fetches them. A slot is assigned by Insert and released
	// by Remove; free holds the released ones, reused last-in first-out,
	// so the table is as long as the most rides ever registered at once.
	rides    map[RideID]*Ride
	slots    []*Ride
	free     []int32
	clusters []clusterList

	// neighbors[c] lists all clusters sorted by ascending distance from
	// c, so "clusters within d of C" is a prefix.
	neighbors [][]neighborEntry

	nextID RideID

	// ptBuf, supBuf and supOff are register's scratch (reused across
	// calls; the index has a single writer): the ride's pass-through runs
	// and its support records in emission order, and per cluster the
	// records' count, then their group's write position (all zero between
	// calls).
	ptBuf  []ptEntry
	supBuf []buildSupport
	supOff []int32
}

// buildSupport is a support record on its way into a ride's table: until
// the records are grouped, each has to say which cluster it serves.
type buildSupport struct {
	cluster int32
	Support
}

type neighborEntry struct {
	Cluster int32
	Dist    float64
}

// New builds an empty index over disc, with its O(k²) neighbor table:
// per cluster, every cluster sorted by ascending distance.
func New(disc *discretize.Discretization, cfg Config) (*Index, error) {
	if cfg.AvgSpeed <= 0 {
		return nil, fmt.Errorf("index: AvgSpeed must be positive, got %v", cfg.AvgSpeed)
	}
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
	return &Index{
		cfg:       cfg,
		disc:      disc,
		rides:     make(map[RideID]*Ride),
		clusters:  make([]clusterList, k),
		neighbors: neighbors,
		supOff:    make([]int32, k),
	}, nil
}

// Disc exposes the discretization the index was built over.
func (ix *Index) Disc() *discretize.Discretization { return ix.disc }

// NumRides returns the number of registered rides.
func (ix *Index) NumRides() int { return len(ix.rides) }

// Ride returns a registered ride, or nil.
func (ix *Index) Ride(id RideID) *Ride { return ix.rides[id] }

// NumSlots returns the length of the slot table: every slot a posting
// list can name is below it.
func (ix *Index) NumSlots() int { return len(ix.slots) }

// RideAt returns the ride registered in slot (as PotentialSlots reports
// it), or nil if the slot is free.
func (ix *Index) RideAt(slot int32) *Ride { return ix.slots[slot] }

// Rides calls f for every registered ride, in slot order, until f
// returns false.
func (ix *Index) Rides(f func(*Ride) bool) {
	for _, r := range ix.slots {
		if r != nil && !f(r) {
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
// potential-ride lists. The ride gets a slot of this index, whatever slot
// it carried (a clone of a ride of another index).
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
	if n := len(ix.free); n > 0 {
		r.slot, ix.free = ix.free[n-1], ix.free[:n-1]
		ix.slots[r.slot] = r
	} else {
		r.slot = int32(len(ix.slots))
		ix.slots = append(ix.slots, r)
	}
	ix.rides[r.ID] = r
	ix.register(r)
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
	ix.slots[r.slot] = nil
	ix.free = append(ix.free, r.slot)
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
	r.pt, r.support, r.dir = nil, nil, nil
	if r.SeatsAvail <= 0 {
		return
	}

	// 1. Pass-through clusters: walk the route, map node → cluster, and
	// emit one entry per maximal run of equal cluster within a segment —
	// into the build buffer, so the ride's list is one exact-size
	// allocation whatever its length.
	pt := ix.ptBuf[:0]
	for i := r.Progress; i < len(r.Route); i++ {
		c := ix.disc.ClusterOfNode(r.Route[i])
		if c < 0 {
			continue
		}
		seg := int32(r.segmentOf(i))
		if n := len(pt); n > 0 && pt[n-1].Cluster == int32(c) && pt[n-1].Seg == seg && int(pt[n-1].LastIdx) == i-1 {
			pt[n-1].LastIdx = int32(i)
			continue
		}
		pt = append(pt, ptEntry{
			Cluster:  int32(c),
			Seg:      seg,
			FirstIdx: int32(i),
			LastIdx:  int32(i),
			ETA:      r.RouteETA[i],
		})
	}
	ix.ptBuf = pt
	if len(pt) == 0 {
		return // no route node ahead lies in a cluster
	}
	r.pt = make([]ptEntry, len(pt))
	copy(r.pt, pt)

	// 2. Reachable clusters per pass-through entry, with the detour test
	//    d(C,C') + d(C',v_{i+1}) − d(C,v_{i+1}) ≤ d  (§VI).
	// Distances to the via-point are approximated by distances to the
	// via-point's cluster, consistent with the ε error budget; via-points
	// outside any cluster skip the refinement (conservative superset —
	// the booking-time shortest paths remain the ground truth). Supports
	// collect in the index's build buffer in ascending route position,
	// each (cluster, position) at most once, counted per cluster.
	// groups counts the clusters with any.
	buf, off, groups := ix.supBuf[:0], ix.supOff, 0
	for pi := range r.pt {
		e := &r.pt[pi]
		c := e.Cluster
		buf = append(buf, buildSupport{c, Support{Order: int32(pi), Seg: e.Seg, ETA: e.ETA}})
		if off[c]++; off[c] == 1 {
			groups++
		}

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
			buf = append(buf, buildSupport{nb.Cluster, Support{Order: int32(pi), Seg: e.Seg, Detour: detour, ETA: eta}})
			if off[nb.Cluster]++; off[nb.Cluster] == 1 {
				groups++
			}
		}
	}
	ix.supBuf = buf

	// 3. Group instead of sort: a counting pass lays the clusters' groups
	// out in ascending cluster order in the ride's exact-size table —
	// writing the directory as it goes — and a stable scatter fills each
	// in ascending route position.
	sup := make([]Support, len(buf))
	dir := make([]dirEntry, 0, groups+1)
	next := int32(0)
	for c, n := range off {
		if n > 0 { // an absent cluster's slot stays zero
			dir = append(dir, dirEntry{Cluster: int32(c), Start: next})
			off[c] = next
			next += n
		}
	}
	dir = append(dir, dirEntry{Cluster: dirEnd, Start: next})
	for _, s := range buf {
		sup[off[s.cluster]] = s.Support
		off[s.cluster]++
	}
	r.support, r.dir = sup, dir

	// 4. Insertion-sort each (small) group by detour — equal detours stay
	// in route order, the table's order within a group — and list the ride
	// under the cluster at its earliest support ETA.
	for g := range dir[:groups] {
		group := r.group(g)
		eta := group[0].ETA
		for i := 1; i < len(group); i++ {
			s := group[i]
			eta = min(eta, s.ETA)
			j := i
			for ; j > 0 && group[j-1].Detour > s.Detour; j-- {
				group[j] = group[j-1]
			}
			group[j] = s
		}
		c := dir[g].Cluster
		off[c] = 0
		ix.clusters[c].add(r.slot, eta)
	}
}

// unregister removes the ride from all cluster lists and clears its
// registration state.
func (ix *Index) unregister(r *Ride) {
	for g := 0; g+1 < len(r.dir); g++ {
		eta, _ := minETA(r.group(g))
		ix.clusters[r.dir[g].Cluster].remove(r.slot, eta)
	}
	r.pt, r.support, r.dir = nil, nil, nil
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
	// of the kept ones is unchanged) and rewriting the directory behind
	// the read position. A cluster left with none drops the ride from its
	// list and its key from the directory; one whose earliest support went
	// gets its ETA refreshed.
	sup, dir := r.support, r.dir
	w, gw := int32(0), 0
	for g := 0; g+1 < len(dir); g++ {
		c, i, end, start := dir[g].Cluster, dir[g].Start, dir[g+1].Start, w
		was, now := math.Inf(1), math.Inf(1)
		for ; i < end; i++ {
			was = min(was, sup[i].ETA)
			if r.pt[sup[i].Order].Crossed {
				continue
			}
			now = min(now, sup[i].ETA)
			sup[w] = sup[i]
			w++
		}
		if w == start {
			ix.clusters[c].remove(r.slot, was)
			continue
		}
		dir[gw] = dirEntry{Cluster: c, Start: start}
		gw++
		if now != was {
			ix.clusters[c].updateETA(r.slot, was, now)
		}
	}
	dir[gw] = dirEntry{Cluster: dirEnd, Start: w}
	r.support, r.dir = sup[:w], dir[:gw+1]
	// Step 3 (remove crossed entries from the pass-through list) is
	// implicit: entries stay marked Crossed and PassThroughClusters
	// filters them out.
	return nil
}

// PotentialSlots appends to dst the slots of the potential rides of
// cluster c whose estimated arrival falls in [t1, t2], in list order, and
// returns the extended slice — the O(log n) retrieval step of the
// optimized search. A slot is good for RideAt under the same lock hold.
func (ix *Index) PotentialSlots(c int, t1, t2 float64, dst []int32) []int32 {
	if c < 0 || c >= len(ix.clusters) {
		return dst
	}
	if ix.cfg.LinearWindowScan {
		return ix.clusters[c].scan(t1, t2, dst)
	}
	return ix.clusters[c].window(t1, t2, dst)
}

// PotentialRides is PotentialSlots in ride IDs (diagnostics, probes and
// tests; the search works in slots).
func (ix *Index) PotentialRides(c int, t1, t2 float64, dst []RideID) []RideID {
	var buf [blockCap]int32 // a window past one block's worth spills to the heap
	for _, slot := range ix.PotentialSlots(c, t1, t2, buf[:0]) {
		dst = append(dst, ix.slots[slot].ID)
	}
	return dst
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
	return eta, ok && ix.clusters[c].has(r.slot, eta)
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
	ix.Rides(func(r *Ride) bool {
		s.PassThroughRuns += len(r.pt)
		s.SupportRecords += len(r.support)
		if r.SeatsAvail <= 0 {
			s.FullRides++
		}
		return true
	})
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
// sweep, not the first symptom. Rides are walked in slot order, so a
// sweep of an unchanged index reports the same findings in the same
// order:
//
//   - the slot table and the by-ID map hold the same rides, each at the
//     slot it carries, and the free list names exactly the empty slots;
//   - a cluster list's blocks have two columns of one length, are
//     non-empty, within the cap, strictly ascending by (ETA, slot) across
//     the whole list, and count len(), and every entry names an occupied
//     slot;
//   - a ride's directory is strictly ascending by cluster, has no empty
//     group and ends at len(support); each group is sorted by (detour,
//     position) and every entry points at a live (non-crossed)
//     pass-through entry;
//   - a ride appears in a cluster list iff it has ≥1 support there;
//   - a ride is listed under exactly its minimum support ETA (the key
//     unregister and Advance find it by);
//   - a ride has supports (is listed) iff it has a free seat and route ahead.
func (ix *Index) Inconsistencies(dst []Inconsistency) []Inconsistency {
	dst = ix.slotDefects(dst)
	// Keyed lookups need a well-formed list; a damaged one is reported as
	// such and left out of the membership check below.
	damaged := map[int32]bool{}
	for c := range ix.clusters {
		l := &ix.clusters[c]
		if slot, defect := l.structuralDefect(); defect != "" {
			inc := Inconsistency{Cluster: c, Detail: defect}
			if r := ix.rideAtChecked(slot); r != nil {
				inc.Ride = r.ID
			}
			dst = append(dst, inc)
			damaged[int32(c)] = true
		}
		for _, b := range l.blocks {
			for i := range min(len(b.eta), len(b.slot)) { // the pairs a damaged block still has
				e := b.at(i)
				r := ix.rideAtChecked(e.Slot)
				if r == nil {
					dst = append(dst, Inconsistency{Cluster: c, Detail: fmt.Sprintf("posting entry names slot %d, which is free or out of range", e.Slot)})
					continue
				}
				best, ok := r.ListETA(c)
				if !ok {
					dst = append(dst, Inconsistency{Ride: r.ID, Cluster: c, Detail: "listed ride has no supports here"})
				} else if best != e.ETA {
					dst = append(dst, Inconsistency{Ride: r.ID, Cluster: c, Detail: fmt.Sprintf("listed ETA %v != min support ETA %v", e.ETA, best)})
				}
			}
		}
	}
	inCluster := func(n roadnet.NodeID) bool { return ix.disc.ClusterOfNode(n) >= 0 }
	ix.Rides(func(r *Ride) bool {
		id := r.ID
		ahead := r.Route[min(r.Progress, len(r.Route)):]
		switch {
		case r.SeatsAvail <= 0 && len(r.support) > 0:
			dst = append(dst, Inconsistency{Ride: id, Cluster: -1, Detail: "full ride is listed / still has supports"})
		case r.SeatsAvail > 0 && len(r.support) == 0 && slices.ContainsFunc(ahead, inCluster):
			dst = append(dst, Inconsistency{Ride: id, Cluster: -1, Detail: "ride with a free seat and uncrossed route has no supports"})
		}
		if defect := r.directoryDefect(); defect != "" {
			// The group walk below reads the table through the directory.
			dst = append(dst, Inconsistency{Ride: id, Cluster: -1, Detail: defect})
			return true
		}
		for g := 0; g+1 < len(r.dir); g++ {
			c, start, group := r.dir[g].Cluster, int(r.dir[g].Start), r.group(g)
			for i, s := range group {
				if i > 0 && (group[i-1].Detour > s.Detour || group[i-1].Detour == s.Detour && group[i-1].Order >= s.Order) {
					dst = append(dst, Inconsistency{Ride: id, Cluster: int(c), Detail: fmt.Sprintf("support table order violated at %d", start+i)})
				}
				if int(s.Order) >= len(r.pt) || r.pt[s.Order].Crossed || r.pt[s.Order].Seg != s.Seg {
					dst = append(dst, Inconsistency{Ride: id, Cluster: int(c), Detail: fmt.Sprintf("support %d does not point at a live pass-through", start+i)})
				}
			}
			if !damaged[c] {
				if _, ok := ix.HasPotentialRide(int(c), id); !ok {
					dst = append(dst, Inconsistency{Ride: id, Cluster: int(c), Detail: "ride's schedule supports this cluster but the list omits it"})
				}
			}
		}
		return true
	})
	return dst
}

// rideAtChecked is RideAt for a slot that may be out of range.
func (ix *Index) rideAtChecked(slot int32) *Ride {
	if slot < 0 || int(slot) >= len(ix.slots) {
		return nil
	}
	return ix.slots[slot]
}

// slotDefects reports where the slot table, the by-ID map and the free
// list disagree.
func (ix *Index) slotDefects(dst []Inconsistency) []Inconsistency {
	empty := 0
	for slot, r := range ix.slots {
		switch {
		case r == nil:
			empty++
		case ix.rides[r.ID] != r || int(r.slot) != slot:
			dst = append(dst, Inconsistency{Ride: r.ID, Cluster: -1, Detail: fmt.Sprintf("slot %d holds a ride the ID map does not file there (its slot field says %d)", slot, r.slot)})
		}
	}
	var astray []RideID
	for id, r := range ix.rides {
		if ix.rideAtChecked(r.slot) != r {
			astray = append(astray, id)
		}
	}
	slices.Sort(astray) // map order
	for _, id := range astray {
		dst = append(dst, Inconsistency{Ride: id, Cluster: -1, Detail: fmt.Sprintf("registered ride is not at slot %d of the slot table", ix.rides[id].slot)})
	}
	if len(ix.free) != empty {
		dst = append(dst, Inconsistency{Cluster: -1, Detail: fmt.Sprintf("free list holds %d slots, the slot table has %d empty", len(ix.free), empty)})
	}
	for _, slot := range ix.free {
		if slot < 0 || int(slot) >= len(ix.slots) || ix.slots[slot] != nil {
			dst = append(dst, Inconsistency{Cluster: -1, Detail: fmt.Sprintf("free list names slot %d, which is occupied or out of range", slot)})
		}
	}
	return dst
}

// directoryDefect describes the first way the ride's cluster directory
// fails to describe its support table — not sentinel-terminated at
// len(support), keys not strictly ascending, an empty group — or returns
// "" for a well-formed one. A ride without a table has no directory.
func (r *Ride) directoryDefect() string {
	dir := r.dir
	if len(dir) == 0 {
		if len(r.support) > 0 {
			return fmt.Sprintf("%d supports and no cluster directory", len(r.support))
		}
		return ""
	}
	if last := dir[len(dir)-1]; last.Cluster != dirEnd || int(last.Start) != len(r.support) {
		return fmt.Sprintf("cluster directory ends at {%d, %d}, want the sentinel at %d", last.Cluster, last.Start, len(r.support))
	}
	if dir[0].Start != 0 {
		return fmt.Sprintf("cluster directory starts at support %d", dir[0].Start)
	}
	for g := 0; g+1 < len(dir); g++ {
		if dir[g].Cluster < 0 || dir[g].Cluster >= dir[g+1].Cluster {
			return fmt.Sprintf("cluster directory not strictly ascending at key %d", g)
		}
		if dir[g].Start >= dir[g+1].Start {
			return fmt.Sprintf("cluster directory has an empty group at key %d", g)
		}
	}
	return ""
}

// DropFromClusterList removes ride id from cluster c's potential-ride
// list while leaving the ride's support records in place — a deliberate
// index↔schedule inconsistency. It exists solely for auditor
// fault-injection drills ("drop a ride from a cluster list behind the
// engine's back"); nothing in the serving path calls it. Reports whether
// the ride was listed.
func (ix *Index) DropFromClusterList(c int, id RideID) bool {
	eta, ok := ix.HasPotentialRide(c, id)
	return ok && ix.clusters[c].remove(ix.rides[id].slot, eta)
}
