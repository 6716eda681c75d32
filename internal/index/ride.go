// Package index implements the XAR in-memory indexing structure (§VI of
// the paper): rides with via-points and segments, per-segment pass-through
// clusters, reachable clusters under the detour test, and per-cluster
// potential-ride lists sorted by estimated time of arrival — potential:
// a ride with no free seat stays registered (tracked; a cancellation can
// free a seat) but is in no list. (The paper's second order, by ride ID,
// is subsumed by each ride's own support table and its cluster directory:
// they answer "is this ride listed there, and under which ETA".)
//
// Every registered ride holds a slot of its index's slot table for as
// long as it is registered; posting lists name rides by slot, and a
// search reads its candidates, their rides and their supports by array
// index. The by-ID map serves the entry points that start from an ID.
//
// The index is the component that eliminates shortest-path computation
// from the search path: all spatial reasoning during a search happens in
// terms of precomputed cluster distances. Shortest paths are computed only
// when a ride is created and when a booking is confirmed, exactly as the
// paper prescribes.
//
// An Index is not safe for concurrent use. The core engine reaches it
// through Locked — the one Index behind one RWMutex: a search holds the
// read lock while it reads, a mutation the write lock while it writes
// (never while it computes a shortest path). Rides carry a revision counter
// (Ride.Rev) that the engine's optimistic booking protocol compares to
// detect concurrent mutation between snapshot and commit.
package index

import (
	"fmt"
	"math"

	"xar/internal/geo"
	"xar/internal/roadnet"
)

// RideID uniquely identifies a ride in the system.
type RideID int64

// ViaPoint is a location the ride must pass through: the ride's own
// source and destination plus every co-rider pickup/drop-off (§VI item 6).
// Via-points are distinct from way-points (route nodes).
type ViaPoint struct {
	RouteIdx int            // index into Ride.Route
	Node     roadnet.NodeID // road node of the via-point
	ETA      float64        // seconds since epoch
	Kind     ViaKind
}

// ViaKind tags why a via-point exists.
type ViaKind uint8

// Via-point kinds.
const (
	ViaSource ViaKind = iota
	ViaDest
	ViaPickup
	ViaDropoff
)

func (k ViaKind) String() string {
	switch k {
	case ViaSource:
		return "source"
	case ViaDest:
		return "dest"
	case ViaPickup:
		return "pickup"
	case ViaDropoff:
		return "dropoff"
	default:
		return fmt.Sprintf("viakind(%d)", uint8(k))
	}
}

// Ride is a ride offer tracked by the index (§VI items 1–10).
type Ride struct {
	ID RideID
	// Owner identifies the driver for social-graph match prioritization
	// (0 = unknown).
	Owner     int64
	Source    geo.Point
	Dest      geo.Point
	Departure float64 // seconds since epoch

	SeatsTotal int
	SeatsAvail int

	// Route is the current node path from source to destination; RouteETA
	// holds the estimated arrival time at each route node, computed from
	// edge travel times when the ride is created or re-routed.
	Route    []roadnet.NodeID
	RouteETA []float64

	// Via holds the via-points in route order; Via[0] is the source and
	// Via[len-1] the destination. The segment s is the portion of the
	// route between Via[s] and Via[s+1].
	Via []ViaPoint

	// DetourLimit is the *remaining* detour budget in meters. Each
	// booking decrements it by the extra distance the booking added;
	// cancellations restore it. DetourLimitInitial is the driver's
	// original tolerance and BaseRouteLen the length of the original
	// (booking-free) shortest route — together they let a cancellation
	// recompute the remaining budget exactly.
	DetourLimit        float64
	DetourLimitInitial float64
	BaseRouteLen       float64

	// Progress is the index of the last route node the vehicle has
	// passed. Tracking advances it; clusters behind it become obsolete.
	Progress int

	// Rev is the ride's revision counter, bumped on every committed
	// mutation of booking-relevant state (route/via/budget/seats via
	// Reregister, progress via Advance). The engine's optimistic booking
	// protocol snapshots Rev under a read lock, computes the splice
	// unlocked, and commits only if Rev is unchanged under the write
	// lock — a changed Rev means the splice was computed against stale
	// state and the booking retries.
	Rev uint64

	// Index registration state (maintained by Index): the pass-through
	// runs in route order; the support table as two columns, one group
	// per supported cluster in ascending cluster order, each sorted by
	// (detour, run) — det, the detours, and the runs at the head of cols
	// — and, after the runs in cols, the directory that says where each
	// group starts (see Supports); slot is the ride's place in the slot
	// table of the index it is registered in, and full says register
	// found it without a free seat (the index's Occupancy counts it).
	pt   []ptEntry
	det  []float64
	cols []int32
	slot int32
	full bool
}

// Clone returns a deep copy of the ride: a snapshot that stays valid
// (and race-free) after the engine releases the index lock.
// Registration state is cloned too, so read-only helpers like
// PassThroughClusters and ReachableClusters work on the copy. The slot
// the copy carries means nothing outside the index the original is in:
// Insert assigns the receiving index's own.
func (r *Ride) Clone() *Ride {
	if r == nil {
		return nil
	}
	c := *r
	c.Route = append([]roadnet.NodeID(nil), r.Route...)
	c.RouteETA = append([]float64(nil), r.RouteETA...)
	c.Via = append([]ViaPoint(nil), r.Via...)
	c.pt = append([]ptEntry(nil), r.pt...)
	c.det = append([]float64(nil), r.det...)
	c.cols = append([]int32(nil), r.cols...)
	return &c
}

// ptEntry is one pass-through cluster of one segment of the ride. The
// vehicle has crossed it once LastIdx is behind the ride's Progress.
// 24 bytes.
type ptEntry struct {
	Cluster  int32
	Seg      int32 // segment index: between Via[Seg] and Via[Seg+1]
	FirstIdx int32 // first route index inside the cluster (this run)
	LastIdx  int32 // last route index inside the cluster (this run)
	ETA      float64
}

// A support is one way a ride can serve a cluster: a pass-through run
// that reaches the cluster with some meters of extra driving. A ride's
// supports are one table in two columns: the detour (float64) and the
// run (int32, the position of the supporting pass-through along the
// route), 12 bytes a record. Which cluster a record serves is the
// directory's to say; the run's segment, its cluster and its ETA are the
// run's (RunSeg, SupportETA); the distance from the run's cluster to the
// served one is the region's (Discretization.ClusterDistsTo), 0 on the
// run's own cluster.

// RunSeg returns the segment of pass-through run run.
func (r *Ride) RunSeg(run int32) int { return int(r.pt[run].Seg) }

// RunDist returns the distance from pass-through run run's cluster to
// the cluster whose region distance column to is: 0 on that cluster.
func (r *Ride) RunDist(run int32, to []float32) float32 { return to[r.pt[run].Cluster] }

// SupportETA returns the arrival estimate of a support of cluster c at
// pass-through run run, where to is the region's distance column to c
// (Discretization.ClusterDistsTo(c)): the run's ETA plus the distance
// from the run's cluster at AvgSpeed. Pass-through ETAs never decrease
// along the route, and the sum and the quotient are monotone, so of two
// supports of c, one at a later-or-equal run no nearer than the other
// never arrives earlier.
func (r *Ride) SupportETA(run int32, to []float32) float64 {
	e := &r.pt[run]
	return e.ETA + float64(to[e.Cluster])/AvgSpeed
}

// The cluster directory sits in cols after the run column: one key of
// two words per supported cluster, (cluster, start), saying that the
// cluster's supports start at record start and run to the next key's
// start. A directory is strictly ascending by cluster and ends with a
// sentinel {dirEnd, len(det)}, so every group has a successor to end at.
const dirKey = 2 // int32 words a key takes

// dirEnd is the sentinel's cluster: above every real one.
const dirEnd = math.MaxInt32

// runs returns the run column of the support table.
func (r *Ride) runs() []int32 { return r.cols[:len(r.det)] }

// dir returns the cluster directory's words: key g is dir[2g], dir[2g+1].
func (r *Ride) dir() []int32 { return r.cols[len(r.det):] }

// numGroups returns the number of directory keys, the sentinel left out.
func (r *Ride) numGroups() int { return max(len(r.cols)-len(r.det), dirKey)/dirKey - 1 }

// groupCluster returns the cluster of directory key g.
func (r *Ride) groupCluster(g int) int32 { return r.cols[len(r.det)+dirKey*g] }

// group returns the detours and runs of directory key g.
func (r *Ride) group(g int) (det []float64, runs []int32) {
	dir := r.dir()
	start, end := dir[dirKey*g+1], dir[dirKey*g+dirKey+1]
	return r.det[start:end], r.cols[start:end]
}

// Supports returns the ways the ride can currently serve cluster c: the
// detours, ascending, and the runs, equal detours by ascending route
// position. Both are sub-slices of the ride's support columns, found by
// a binary search of the directory's keys — a few cache lines, where the
// records of a dense ride span kilobytes — no copy, nothing to sort; the
// caller must hold the index lock and must not modify them. Every run
// is one the vehicle has not crossed: Advance compacts crossed ones out
// under the same write lock that marks them.
func (r *Ride) Supports(c int) (det []float64, runs []int32) {
	dir, key := r.dir(), int32(c)
	keys := len(dir)/dirKey - 1 // the sentinel is no key
	lo, hi := 0, keys
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dir[dirKey*mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= keys || dir[dirKey*lo] != key {
		return nil, nil
	}
	start, end := dir[dirKey*lo+1], dir[dirKey*lo+dirKey+1]
	return r.det[start:end], r.cols[start:end]
}

// ListETA returns the arrival estimate ride r is listed under in cluster
// c's potential-ride list — its earliest support there — and whether it
// has any. register and Advance list the ride at exactly this value,
// which is what lets them find the tuple again by key.
func (ix *Index) ListETA(r *Ride, c int) (float64, bool) {
	_, runs := r.Supports(c)
	if len(runs) == 0 {
		return 0, false
	}
	return r.minETA(runs, ix.disc.ClusterDistsTo(c)), true
}

// minETA returns the earliest ETA of one cluster's supports, given by
// their runs (at least one) and the region's distance column to the
// cluster.
func (r *Ride) minETA(runs []int32, to []float32) float64 {
	eta := r.SupportETA(runs[0], to)
	for _, run := range runs[1:] {
		eta = min(eta, r.SupportETA(run, to))
	}
	return eta
}

// NumSegments returns the number of route segments (via-point count − 1).
func (r *Ride) NumSegments() int {
	if len(r.Via) < 2 {
		return 0
	}
	return len(r.Via) - 1
}

// PassThroughClusters returns the distinct not-yet-crossed pass-through
// clusters in route order (diagnostics and tests).
func (r *Ride) PassThroughClusters() []int {
	var out []int
	seen := map[int32]bool{}
	for _, e := range r.pt {
		if int(e.LastIdx) < r.Progress || seen[e.Cluster] {
			continue
		}
		seen[e.Cluster] = true
		out = append(out, int(e.Cluster))
	}
	return out
}

// ReachableClusters returns the distinct clusters the ride can currently
// serve (the union of supported clusters over valid pass-throughs).
func (r *Ride) ReachableClusters() []int {
	var out []int
	for g := range r.numGroups() {
		out = append(out, int(r.groupCluster(g)))
	}
	return out
}
