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
	// runs in route order, the flat support table — one group per
	// supported cluster in ascending cluster order, each sorted by
	// (Detour, Order) — and the directory that says where each group
	// starts (see Supports). slot is the ride's place in the slot table of
	// the index it is registered in.
	pt      []ptEntry
	support []Support
	dir     []dirEntry
	slot    int32
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
	c.support = append([]Support(nil), r.support...)
	c.dir = append([]dirEntry(nil), r.dir...)
	return &c
}

// ptEntry is one pass-through cluster of one segment of the ride.
type ptEntry struct {
	Cluster  int32
	Seg      int32 // segment index: between Via[Seg] and Via[Seg+1]
	FirstIdx int32 // first route index inside the cluster (this run)
	LastIdx  int32 // last route index inside the cluster (this run)
	ETA      float64
	Crossed  bool
}

// Support is one way a ride can serve a cluster: pass-through run Order
// reaches the cluster with the given extra driving and arrival estimate.
// A ride's supports live in one flat table (Ride.support); which cluster
// a record serves is the directory's to say, not the record's. 24 bytes.
type Support struct {
	Order  int32   // position of the supporting pass-through along the route
	Seg    int32   // segment of the supporting pass-through
	Detour float64 // meters of extra driving
	ETA    float64 // seconds since epoch
}

// dirEntry is one key of a ride's cluster directory: the supports of
// Cluster start at support[Start] and run to the next entry's Start. A
// directory is strictly ascending by cluster and ends with a sentinel
// {dirEnd, len(support)}, so every group has a successor to end at.
type dirEntry struct {
	Cluster int32
	Start   int32
}

// dirEnd is the sentinel's cluster: above every real one.
const dirEnd = math.MaxInt32

// group returns the supports of directory entry g.
func (r *Ride) group(g int) []Support {
	return r.support[r.dir[g].Start:r.dir[g+1].Start]
}

// Supports returns the ways the ride can currently serve cluster c, in
// ascending detour order, equal detours by ascending route position. It
// is a sub-slice of the ride's support table, found by a binary search of
// the directory's keys — a few cache lines, where the records of a dense
// ride span kilobytes — no copy, nothing to sort; the caller must hold
// the index lock and must not modify it. Every entry refers to a
// pass-through the vehicle has not crossed: Advance compacts crossed ones
// out under the same write lock that marks them.
func (r *Ride) Supports(c int) []Support {
	dir, key := r.dir, int32(c)
	lo, hi := 0, len(dir)-1 // the sentinel is no key
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dir[mid].Cluster < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(dir)-1 || dir[lo].Cluster != key {
		return nil
	}
	return r.group(lo)
}

// ListETA returns the arrival estimate the ride is listed under in
// cluster c's potential-ride list — its earliest support there — and
// whether it has any. register and Advance list the ride at exactly this
// value, which is what lets them find the tuple again by key.
func (r *Ride) ListETA(c int) (float64, bool) {
	return minETA(r.Supports(c))
}

// minETA returns the earliest ETA of one cluster's supports.
func minETA(group []Support) (float64, bool) {
	if len(group) == 0 {
		return 0, false
	}
	eta := group[0].ETA
	for _, s := range group[1:] {
		eta = min(eta, s.ETA)
	}
	return eta, true
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
		if e.Crossed || seen[e.Cluster] {
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
	for g := 0; g+1 < len(r.dir); g++ {
		out = append(out, int(r.dir[g].Cluster))
	}
	return out
}

// segmentOf returns the segment index containing route index idx.
func (r *Ride) segmentOf(idx int) int {
	for s := 0; s+1 < len(r.Via); s++ {
		if idx >= r.Via[s].RouteIdx && idx <= r.Via[s+1].RouteIdx {
			if idx == r.Via[s+1].RouteIdx && s+2 < len(r.Via) {
				continue // boundary node belongs to the next segment
			}
			return s
		}
	}
	return len(r.Via) - 2
}
