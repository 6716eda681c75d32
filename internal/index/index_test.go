package index

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xar/internal/discretize"
	"xar/internal/roadnet"
)

// testWorld builds a small city + discretization shared by the tests.
func testWorld(t testing.TB) *discretize.Discretization {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(22, 13, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newTestIndex(t testing.TB, d *discretize.Discretization) *Index {
	t.Helper()
	ix, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// makeRide builds a ride between two road nodes with a shortest-path
// route, constant-speed ETAs and a detour limit.
func makeRide(t testing.TB, d *discretize.Discretization, ix *Index, from, to roadnet.NodeID, depart, detour float64) *Ride {
	t.Helper()
	s := roadnet.NewSearcher(d.City().Graph)
	res := s.ShortestPath(from, to)
	if !res.Reachable() {
		t.Fatalf("no route %d→%d", from, to)
	}
	r := &Ride{
		ID:          ix.NextID(),
		Source:      d.City().Graph.Point(from),
		Dest:        d.City().Graph.Point(to),
		Departure:   depart,
		SeatsTotal:  4,
		SeatsAvail:  3,
		Route:       res.Path,
		DetourLimit: detour,
	}
	r.RouteETA = make([]float64, len(res.Path))
	var cum float64
	for i := 1; i < len(res.Path); i++ {
		cum += segLen(t, d, res.Path[i-1], res.Path[i]) / 7.0
		r.RouteETA[i] = depart + cum
	}
	r.RouteETA[0] = depart
	r.Via = []ViaPoint{
		{RouteIdx: 0, Node: from, ETA: depart, Kind: ViaSource},
		{RouteIdx: len(res.Path) - 1, Node: to, ETA: r.RouteETA[len(res.Path)-1], Kind: ViaDest},
	}
	return r
}

func segLen(t testing.TB, d *discretize.Discretization, a, b roadnet.NodeID) float64 {
	t.Helper()
	l, err := d.City().Graph.PathLength([]roadnet.NodeID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// pickCrossingNodes returns two nodes far apart in the city.
func pickCrossingNodes(t testing.TB, d *discretize.Discretization) (roadnet.NodeID, roadnet.NodeID) {
	t.Helper()
	g := d.City().Graph
	return 0, roadnet.NodeID(g.NumNodes() - 1)
}

func TestNewValidation(t *testing.T) {
	d := testWorld(t)
	if _, err := New(d, Config{AvgSpeed: 0}); err == nil {
		t.Fatal("zero speed must be rejected")
	}
}

// TestNewShardedRefusesStripes: the benchmark module's constructor still
// takes a stripe count; asking for more than the one index there is must
// fail by name, not be served by one stripe in silence.
func TestNewShardedRefusesStripes(t *testing.T) {
	d := testWorld(t)
	for _, n := range []int{0, 1} {
		l, err := NewSharded(d, DefaultConfig(), n)
		if err != nil || l.NumShards() != 1 || l.Shard(0) != l || l.ShardFor(7) != l {
			t.Fatalf("NewSharded(n=%d) = %v, %v; want the one locked index", n, l, err)
		}
	}
	_, err := NewSharded(d, DefaultConfig(), 2)
	if err == nil || !strings.Contains(err.Error(), "striping was removed") {
		t.Fatalf("NewSharded(n=2) err = %v, want one naming the removal", err)
	}
}

func TestInsertValidation(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	if err := ix.Insert(nil); err == nil {
		t.Fatal("nil ride must be rejected")
	}
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 1500)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(r); err == nil {
		t.Fatal("duplicate ID must be rejected")
	}
	bad := makeRide(t, d, ix, from, to, 0, 1500)
	bad.RouteETA = bad.RouteETA[:1]
	if err := ix.Insert(bad); err == nil {
		t.Fatal("inconsistent ETAs must be rejected")
	}
	bad2 := makeRide(t, d, ix, from, to, 0, -5)
	if err := ix.Insert(bad2); err == nil {
		t.Fatal("negative detour must be rejected")
	}
	bad3 := makeRide(t, d, ix, from, to, 0, 1500)
	bad3.Via = bad3.Via[:1]
	if err := ix.Insert(bad3); err == nil {
		t.Fatal("single via-point must be rejected")
	}
}

func TestInsertPopulatesClusters(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 1000, 1500)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	pts := r.PassThroughClusters()
	if len(pts) < 2 {
		t.Fatalf("cross-city ride passes through %d clusters, want several", len(pts))
	}
	reach := r.ReachableClusters()
	if len(reach) < len(pts) {
		t.Fatalf("reachable (%d) must include pass-through (%d)", len(reach), len(pts))
	}
	// The ride must be listed in every reachable cluster.
	for _, c := range reach {
		if _, ok := ix.HasPotentialRide(c, r.ID); !ok {
			t.Fatalf("ride missing from cluster %d list", c)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPassThroughETAsMatchRoute(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 500, 1500)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	for _, e := range r.pt {
		if e.ETA != r.RouteETA[e.FirstIdx] {
			t.Fatalf("pt cluster %d ETA %v != route ETA %v", e.Cluster, e.ETA, r.RouteETA[e.FirstIdx])
		}
		if e.FirstIdx > e.LastIdx {
			t.Fatalf("pt run inverted: %d > %d", e.FirstIdx, e.LastIdx)
		}
		// Every node in the run maps to the entry's cluster.
		for i := e.FirstIdx; i <= e.LastIdx; i++ {
			if c := d.ClusterOfNode(r.Route[i]); c != int(e.Cluster) {
				t.Fatalf("route idx %d in cluster %d, pt says %d", i, c, e.Cluster)
			}
		}
	}
}

func TestReachableRespectsDetourLimit(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 800)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	for _, ref := range clusteredSupports(r) {
		c := ref.Cluster
		if ref.Detour > r.DetourLimit+1e-9 {
			t.Fatalf("cluster %d reachable with detour %.1f > limit %.1f", c, ref.Detour, r.DetourLimit)
		}
		// The raw cluster distance from the supporting pass-through
		// cluster is also within the limit.
		ptCluster := int(r.pt[ref.Order].Cluster)
		if dd := d.ClusterDist(ptCluster, int(c)); dd > r.DetourLimit+1e-9 {
			t.Fatalf("cluster %d at raw distance %.1f > limit", c, dd)
		}
	}
}

func TestZeroDetourOnlyPassThrough(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 0)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	pts := map[int]bool{}
	for _, c := range r.PassThroughClusters() {
		pts[c] = true
	}
	for _, c := range r.ReachableClusters() {
		if !pts[c] {
			t.Fatalf("zero-detour ride reaches non-pass-through cluster %d", c)
		}
	}
}

func TestRemove(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 1500)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	reach := append([]int(nil), r.ReachableClusters()...)
	if !ix.Remove(r.ID) {
		t.Fatal("Remove returned false for a registered ride")
	}
	if ix.Remove(r.ID) {
		t.Fatal("second Remove must return false")
	}
	for _, c := range reach {
		if _, ok := ix.HasPotentialRide(c, r.ID); ok {
			t.Fatalf("removed ride still listed in cluster %d", c)
		}
		if ix.ClusterListLen(c) != 0 {
			t.Fatalf("cluster %d still has %d entries", c, ix.ClusterListLen(c))
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPotentialRidesTimeWindow(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r1 := makeRide(t, d, ix, from, to, 0, 1200)
	r2 := makeRide(t, d, ix, from, to, 3600, 1200)
	if err := ix.Insert(r1); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(r2); err != nil {
		t.Fatal(err)
	}
	// Pick a cluster both rides pass through (same route).
	shared := r1.PassThroughClusters()[0]
	eta1, ok1 := ix.HasPotentialRide(shared, r1.ID)
	eta2, ok2 := ix.HasPotentialRide(shared, r2.ID)
	if !ok1 || !ok2 {
		t.Fatal("both rides must be listed in the shared cluster")
	}
	// Window containing only ride 1.
	got := ix.PotentialRides(shared, eta1-1, eta1+1, nil)
	found1, found2 := false, false
	for _, id := range got {
		if id == r1.ID {
			found1 = true
		}
		if id == r2.ID {
			found2 = true
		}
	}
	if !found1 || found2 {
		t.Fatalf("narrow window around ride1: found1=%v found2=%v (etas %v %v)", found1, found2, eta1, eta2)
	}
	// Window containing both.
	got = ix.PotentialRides(shared, math.Min(eta1, eta2)-1, math.Max(eta1, eta2)+1, nil)
	if len(got) < 2 {
		t.Fatalf("wide window found %d rides, want 2", len(got))
	}
	// Empty and inverted windows.
	if got := ix.PotentialRides(shared, eta2+10000, eta2+20000, nil); len(got) != 0 {
		t.Fatalf("far-future window found %d rides", len(got))
	}
	if got := ix.PotentialRides(shared, 100, 50, nil); len(got) != 0 {
		t.Fatal("inverted window must be empty")
	}
	if got := ix.PotentialRides(-1, 0, 1, nil); len(got) != 0 {
		t.Fatal("invalid cluster must be empty")
	}
}

func TestLinearWindowScanMatchesBinary(t *testing.T) {
	d := testWorld(t)
	cfgLin := DefaultConfig()
	cfgLin.LinearWindowScan = true
	ixA := newTestIndex(t, d)
	ixB, err := New(d, cfgLin)
	if err != nil {
		t.Fatal(err)
	}
	from, to := pickCrossingNodes(t, d)
	for i := 0; i < 10; i++ {
		ra := makeRide(t, d, ixA, from, to, float64(i*600), 1000)
		rb := *ra
		rb.ID = ra.ID
		if err := ixA.Insert(ra); err != nil {
			t.Fatal(err)
		}
		rb2 := makeRide(t, d, ixB, from, to, float64(i*600), 1000)
		rb2.ID = ra.ID // align IDs
		ixB.nextID = ra.ID
		if err := ixB.Insert(rb2); err != nil {
			t.Fatal(err)
		}
	}
	shared := 0
	for c := 0; c < d.NumClusters(); c++ {
		if ixA.ClusterListLen(c) > 0 {
			shared = c
			break
		}
	}
	a := ixA.PotentialRides(shared, 0, 4000, nil)
	b := ixB.PotentialRides(shared, 0, 4000, nil)
	if len(a) != len(b) {
		t.Fatalf("binary window %d rides, linear %d", len(a), len(b))
	}
}

func TestAdvanceRemovesObsoleteClusters(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 1000)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	firstCluster := int(r.pt[0].Cluster)
	before := len(r.ReachableClusters())

	// Drive to the end of the route.
	if err := ix.Advance(r.ID, len(r.Route)-1); err != nil {
		t.Fatal(err)
	}
	after := len(r.ReachableClusters())
	if after >= before {
		t.Fatalf("advance to end kept %d of %d clusters", after, before)
	}
	// The first pass-through cluster must no longer list the ride unless
	// a later pass-through still supports it.
	stillSupported := len(r.Supports(firstCluster)) > 0
	_, listed := ix.HasPotentialRide(firstCluster, r.ID)
	if listed != stillSupported {
		t.Fatalf("cluster %d: listed=%v but valid supports=%v", firstCluster, listed, stillSupported)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceValidation(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	if err := ix.Advance(999, 1); err == nil {
		t.Fatal("advancing an unknown ride must error")
	}
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 1000)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	if err := ix.Advance(r.ID, 5); err != nil {
		t.Fatal(err)
	}
	if err := ix.Advance(r.ID, 3); err == nil {
		t.Fatal("moving backwards must error")
	}
	// Past-the-end positions clamp.
	if err := ix.Advance(r.ID, len(r.Route)+100); err != nil {
		t.Fatal(err)
	}
	if r.Progress != len(r.Route)-1 {
		t.Fatalf("progress = %d, want clamp to %d", r.Progress, len(r.Route)-1)
	}
}

func TestAdvanceIncremental(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 1000)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	prev := len(r.ReachableClusters())
	for pos := 0; pos < len(r.Route); pos += 5 {
		if err := ix.Advance(r.ID, pos); err != nil {
			t.Fatal(err)
		}
		cur := len(r.ReachableClusters())
		if cur > prev {
			t.Fatalf("reachable clusters grew during tracking: %d → %d", prev, cur)
		}
		prev = cur
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
	}
}

func TestSupportsOrdering(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 1500)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	table := clusteredSupports(r)
	for _, c := range r.ReachableClusters() {
		sups := r.Supports(c)
		if len(sups) == 0 {
			t.Fatalf("cluster %d has no supports", c)
		}
		for i, s := range sups {
			if at := slices.Index(r.support, s); at < 0 || int(table[at].Cluster) != c {
				t.Fatalf("Supports(%d) returned a support that is not in cluster %d's group (table position %d)", c, c, at)
			}
			if i > 0 && (s.Detour < sups[i-1].Detour || s.Detour == sups[i-1].Detour && s.Order <= sups[i-1].Order) {
				t.Fatal("supports not sorted by (detour, route position)")
			}
		}
	}
	if got := r.Supports(d.NumClusters()); len(got) != 0 {
		t.Fatal("an unreachable cluster must have no supports")
	}
}

func TestReregisterAfterDetourShrink(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 2000)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	before := len(r.ReachableClusters())
	r.DetourLimit = 100
	if err := ix.Reregister(r); err != nil {
		t.Fatal(err)
	}
	after := len(r.ReachableClusters())
	if after >= before {
		t.Fatalf("shrinking detour kept %d of %d clusters", after, before)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reregister of an unknown ride errors.
	ghost := makeRide(t, d, ix, from, to, 0, 100)
	if err := ix.Reregister(ghost); err == nil {
		t.Fatal("reregistering an uninserted ride must error")
	}
}

func TestNoReachablePrecomputeAblation(t *testing.T) {
	d := testWorld(t)
	cfg := DefaultConfig()
	cfg.NoReachablePrecompute = true
	ix, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 2000)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	pts := map[int]bool{}
	for _, c := range r.PassThroughClusters() {
		pts[c] = true
	}
	for _, c := range r.ReachableClusters() {
		if !pts[c] {
			t.Fatalf("ablated index indexed non-pass-through cluster %d", c)
		}
	}
}

func TestRandomOperationSequenceKeepsInvariants(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	g := d.City().Graph
	rng := rand.New(rand.NewSource(77))
	var live []RideID
	for step := 0; step < 200; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert
			from := roadnet.NodeID(rng.Intn(g.NumNodes()))
			to := roadnet.NodeID(rng.Intn(g.NumNodes()))
			if from == to {
				continue
			}
			r := makeRide(t, d, ix, from, to, float64(rng.Intn(7200)), float64(rng.Intn(2000)))
			if err := ix.Insert(r); err != nil {
				t.Fatal(err)
			}
			live = append(live, r.ID)
		case op < 8: // advance, or (one time in four) reregister with a new budget
			if len(live) == 0 {
				continue
			}
			r := ix.Ride(live[rng.Intn(len(live))])
			// A clone taken before the mutation keeps the table it copied.
			snap := r.Clone()
			before := append([]Support(nil), snap.support...)
			if rng.Intn(4) == 0 {
				r.DetourLimit = float64(rng.Intn(2000))
				r.SeatsAvail = rng.Intn(3) // a third of these fill the ride or find it full
				if err := ix.Reregister(r); err != nil {
					t.Fatal(err)
				}
			} else if err := ix.Advance(r.ID, r.Progress+rng.Intn(10)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(snap.support, before) {
				t.Fatalf("step %d: mutating ride %d changed its earlier clone's support table", step, r.ID)
			}
			if !slices.Equal(r.Clone().support, r.support) {
				t.Fatalf("step %d: clone of ride %d does not carry its support table", step, r.ID)
			}
		default: // remove
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			if !ix.Remove(live[i]) {
				t.Fatal("failed to remove live ride")
			}
			live = append(live[:i], live[i+1:]...)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestFullRideLeavesEveryList: re-registering a ride with no free seat
// takes it out of exactly the lists it was in and leaves it registered,
// trackable and consistent; re-registering it with a seat again (what a
// cancellation does, progress reset) lists exactly what inserting an
// identical fresh ride lists.
func TestFullRideLeavesEveryList(t *testing.T) {
	d := testWorld(t)
	ix, fresh := newTestIndex(t, d), newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 1500)
	other := makeRide(t, d, ix, from, to, 60, 1500)
	for _, ride := range []*Ride{r, other} {
		if err := ix.Insert(ride); err != nil {
			t.Fatal(err)
		}
	}
	clusters := r.ReachableClusters()
	before := ix.Stats()
	if len(clusters) == 0 || before.FullRides != 0 {
		t.Fatalf("ride reaches %d clusters, index reports %d full rides", len(clusters), before.FullRides)
	}

	r.SeatsAvail = 0
	if err := ix.Reregister(r); err != nil {
		t.Fatal(err)
	}
	full := ix.Stats()
	if full.Rides != 2 || full.FullRides != 1 {
		t.Fatalf("after filling: %+v, want both rides registered and one full", full)
	}
	if got, want := full.ListEntries, before.ListEntries-len(clusters); got != want {
		t.Fatalf("list entries %d → %d, want %d (one per cluster the ride was listed in)", before.ListEntries, got, want)
	}
	if got, want := full.SupportRecords, before.SupportRecords/2; got != want {
		t.Fatalf("support records %d → %d, want the other ride's %d", before.SupportRecords, got, want)
	}
	for _, c := range clusters {
		if _, ok := ix.HasPotentialRide(c, r.ID); ok {
			t.Fatalf("full ride still listed in cluster %d", c)
		}
		if ids := ix.PotentialRides(c, math.Inf(-1), math.Inf(1), nil); slices.Contains(ids, r.ID) || !slices.Contains(ids, other.ID) {
			t.Fatalf("cluster %d lists %v, want ride %d and not ride %d", c, ids, other.ID, r.ID)
		}
	}
	if err := ix.Advance(r.ID, len(r.Route)/2); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats(); got != full {
		t.Fatalf("tracking a full ride changed the index: %+v → %+v", full, got)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	r.SeatsAvail, r.Progress = 1, 0
	if err := ix.Reregister(r); err != nil {
		t.Fatal(err)
	}
	for _, ride := range []*Ride{r, other} {
		twin := ride.Clone()
		twin.pt, twin.support = nil, nil
		if err := fresh.Insert(twin); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ride.support, twin.support) || !slices.Equal(ride.pt, twin.pt) {
			t.Fatalf("ride %d: registration after the seat came back differs from a fresh insert", ride.ID)
		}
	}
	if got, want := ix.Stats(), fresh.Stats(); got != want {
		t.Fatalf("stats %+v, a fresh index holding the same rides %+v", got, want)
	}
	for c := 0; c < d.NumClusters(); c++ {
		got := ix.PotentialRides(c, math.Inf(-1), math.Inf(1), nil)
		if want := fresh.PotentialRides(c, math.Inf(-1), math.Inf(1), nil); !slices.Equal(got, want) {
			t.Fatalf("cluster %d lists %v, a fresh index %v", c, got, want)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// makeLegRide is makeRide over several legs: the route visits stops in
// order (shortest path per leg) and every inner stop is a via-point, so
// the ride has len(stops)−1 segments and can revisit a cluster.
func makeLegRide(t testing.TB, d *discretize.Discretization, ix *Index, stops []roadnet.NodeID, depart, detour float64) *Ride {
	t.Helper()
	r := makeRide(t, d, ix, stops[0], stops[1], depart, detour)
	for _, next := range stops[2:] {
		leg := makeRide(t, d, ix, r.Route[len(r.Route)-1], next, r.RouteETA[len(r.RouteETA)-1], detour)
		r.Via[len(r.Via)-1].Kind = ViaPickup
		r.Route = append(r.Route, leg.Route[1:]...)
		r.RouteETA = append(r.RouteETA, leg.RouteETA[1:]...)
		r.Via = append(r.Via, ViaPoint{RouteIdx: len(r.Route) - 1, Node: next, ETA: r.RouteETA[len(r.Route)-1], Kind: ViaDest})
	}
	return r
}

// clusteredSupport is a support record together with the cluster it
// serves — what a record was before the directory took the cluster over.
type clusteredSupport struct {
	Cluster int32
	Support
}

// compareSupports is the support table's order: by cluster, then
// ascending detour, ties by ascending route position.
func compareSupports(a, b clusteredSupport) int {
	return cmp.Or(cmp.Compare(a.Cluster, b.Cluster), cmp.Compare(a.Detour, b.Detour), cmp.Compare(a.Order, b.Order))
}

// clusteredSupports reads the ride's table out through its directory: one
// record per support, in table order, labelled with its group's cluster.
func clusteredSupports(r *Ride) []clusteredSupport {
	out := make([]clusteredSupport, 0, len(r.support))
	for g := 0; g+1 < len(r.dir); g++ {
		for _, s := range r.group(g) {
			out = append(out, clusteredSupport{r.dir[g].Cluster, s})
		}
	}
	return out
}

// referenceSupports re-derives a ride's support records the slow way —
// every live pass-through against every cluster, no neighbor table, no
// grouping — and sorts them with the comparator that defines the table.
func referenceSupports(ix *Index, r *Ride) []clusteredSupport {
	var recs []clusteredSupport
	for pi, e := range r.pt {
		if e.Crossed {
			continue
		}
		recs = append(recs, clusteredSupport{e.Cluster, Support{Order: int32(pi), Seg: e.Seg, ETA: e.ETA}})
		c, via := int(e.Cluster), -1
		if int(e.Seg)+1 < len(r.Via) {
			via = ix.disc.ClusterOfNode(r.Via[e.Seg+1].Node)
		}
		for o := 0; o < ix.disc.NumClusters(); o++ {
			dist := ix.disc.ClusterDist(c, o)
			if o == c || dist > r.DetourLimit {
				continue
			}
			detour := dist
			if via >= 0 {
				detour = max(0, dist+ix.disc.ClusterDist(o, via)-ix.disc.ClusterDist(c, via))
				if detour > r.DetourLimit {
					continue
				}
			}
			recs = append(recs, clusteredSupport{int32(o), Support{Order: int32(pi), Seg: e.Seg, Detour: detour, ETA: e.ETA + dist/ix.cfg.AvgSpeed}})
		}
	}
	slices.SortFunc(recs, compareSupports)
	return recs
}

// TestSupportTableMatchesSortedRecords: the table register builds by
// grouping (counting pass, stable scatter, per-group insertion sort) is
// element for element the comparator sort of the ride's records — after
// Insert, after Reregister with another budget, and as Advance compacts
// it — on multi-leg rides that revisit clusters and tie on detour.
func TestSupportTableMatchesSortedRecords(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	g := d.City().Graph
	rng := rand.New(rand.NewSource(5))
	check := func(r *Ride, when string) {
		t.Helper()
		got, want := clusteredSupports(r), referenceSupports(ix, r)
		if len(got) != len(r.support) || !slices.Equal(got, want) {
			t.Fatalf("ride %d %s: table of %d supports (%d reached through the directory) differs from the sorted %d records", r.ID, when, len(r.support), len(got), len(want))
		}
	}
	repeats, ties := 0, 0
	for trial := 0; trial < 60; trial++ {
		stops := make([]roadnet.NodeID, 2+rng.Intn(4))
		for i := range stops {
			stops[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
			if i > 0 && stops[i] == stops[i-1] {
				stops[i] = (stops[i] + 1) % roadnet.NodeID(g.NumNodes())
			}
		}
		if trial%3 == 0 { // out and back: every cluster twice
			stops = append(stops, stops[0])
		}
		r := makeLegRide(t, d, ix, stops, float64(rng.Intn(7200)), float64(rng.Intn(2500)))
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
		check(r, "after Insert")
		for i, table := 1, clusteredSupports(r); i < len(table); i++ {
			if a, b := table[i-1], table[i]; a.Cluster == b.Cluster {
				if a.Seg != b.Seg {
					repeats++
				}
				if a.Detour == b.Detour {
					ties++
				}
			}
		}
		r.DetourLimit = float64(rng.Intn(2500))
		if err := ix.Reregister(r); err != nil {
			t.Fatal(err)
		}
		check(r, "after Reregister")
		for pos := rng.Intn(8); pos < len(r.Route); pos += 1 + rng.Intn(12) {
			if err := ix.Advance(r.ID, pos); err != nil {
				t.Fatal(err)
			}
			check(r, "after Advance")
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if repeats == 0 || ties == 0 {
		t.Fatalf("rides never exercised a cluster repeated across segments (%d) or an equal-detour tie (%d)", repeats, ties)
	}
}

// TestInconsistenciesCatchSupportTableDamage: the audit reports a
// support table that is out of order, and a support left pointing at a
// crossed pass-through.
func TestInconsistenciesCatchSupportTableDamage(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	r := makeRide(t, d, ix, from, to, 0, 1500)
	if err := ix.Insert(r); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	last := len(r.support) - 1
	r.support[0], r.support[last] = r.support[last], r.support[0]
	if err := ix.CheckInvariants(); err == nil {
		t.Fatal("an unsorted support table must be reported")
	}
	r.support[0], r.support[last] = r.support[last], r.support[0]

	r.pt[r.support[0].Order].Crossed = true // crossed, but not compacted out
	if err := ix.CheckInvariants(); err == nil {
		t.Fatal("a support of a crossed pass-through must be reported")
	}
	r.pt[r.support[0].Order].Crossed = false

	// Damaged blocks of a cluster list: each defect is reported under the
	// cluster it sits in.
	r2 := makeRide(t, d, ix, from, to, 60, 1500)
	if err := ix.Insert(r2); err != nil {
		t.Fatal(err)
	}
	c := int(r.dir[0].Cluster)
	l := &ix.clusters[c]
	if l.len() != 2 || len(l.blocks) != 1 {
		t.Fatalf("cluster %d lists %d rides in %d blocks, want both rides in one", c, l.len(), len(l.blocks))
	}
	reported := func(detail string) bool {
		for _, inc := range ix.Inconsistencies(nil) {
			if inc.Cluster == c && strings.Contains(inc.Detail, detail) {
				return true
			}
		}
		return false
	}
	b := &l.blocks[0]
	swap := func() { b.eta[0], b.eta[1], b.slot[0], b.slot[1] = b.eta[1], b.eta[0], b.slot[1], b.slot[0] }
	swap()
	if !reported("order violated") {
		t.Error("a block out of (ETA, ride) order must be reported")
	}
	swap()

	l.blocks = append(l.blocks, block{})
	if !reported("holds 0 entries") {
		t.Error("an empty block must be reported")
	}
	l.blocks = l.blocks[:1]
	b = &l.blocks[0]

	listed := b.eta[1]
	b.eta[1] += 30 // still in order, but no longer the key Advance and unregister look up
	if !reported("!= min support ETA") || !reported("the list omits it") {
		t.Error("a ride listed under another ETA than its earliest support must be reported, both ways")
	}
	b.eta[1] = listed
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("damage undone, still reported: %v", err)
	}
}

func TestNextIDMonotonic(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	prev := ix.NextID()
	for i := 0; i < 100; i++ {
		id := ix.NextID()
		if id <= prev {
			t.Fatalf("NextID not monotonic: %d after %d", id, prev)
		}
		prev = id
	}
}

func TestRidesIteration(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	for i := 0; i < 5; i++ {
		r := makeRide(t, d, ix, from, to, float64(i), 500)
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	ix.Rides(func(*Ride) bool { count++; return true })
	if count != 5 || ix.NumRides() != 5 {
		t.Fatalf("iterated %d rides, NumRides=%d, want 5", count, ix.NumRides())
	}
	count = 0
	ix.Rides(func(*Ride) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early-stop iteration visited %d", count)
	}
	if ix.Ride(RideID(9999)) != nil {
		t.Fatal("unknown ride must be nil")
	}
}

func TestViaKindString(t *testing.T) {
	for _, k := range []ViaKind{ViaSource, ViaDest, ViaPickup, ViaDropoff} {
		if k.String() == "" {
			t.Fatal("empty ViaKind string")
		}
	}
	if ViaKind(42).String() != "viakind(42)" {
		t.Fatal("unknown kind string")
	}
}

func TestStatsTracksOccupancy(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	if s := ix.Stats(); s.Rides != 0 || s.ListEntries != 0 {
		t.Fatalf("empty index stats: %+v", s)
	}
	from, to := pickCrossingNodes(t, d)
	r1 := makeRide(t, d, ix, from, to, 0, 1500)
	if err := ix.Insert(r1); err != nil {
		t.Fatal(err)
	}
	s1 := ix.Stats()
	if s1.Rides != 1 || s1.ListEntries == 0 || s1.SupportRecords == 0 || s1.PassThroughRuns == 0 {
		t.Fatalf("stats after one ride: %+v", s1)
	}
	if s1.ListEntries != len(r1.ReachableClusters()) {
		t.Fatalf("list entries %d != reachable clusters %d", s1.ListEntries, len(r1.ReachableClusters()))
	}
	r2 := makeRide(t, d, ix, from, to, 100, 1500)
	if err := ix.Insert(r2); err != nil {
		t.Fatal(err)
	}
	s2 := ix.Stats()
	if s2.ListEntries <= s1.ListEntries || s2.MaxListLen < 2 {
		t.Fatalf("stats after two identical rides: %+v", s2)
	}
	ix.Remove(r1.ID)
	ix.Remove(r2.ID)
	if s := ix.Stats(); s.ListEntries != 0 || s.Rides != 0 {
		t.Fatalf("stats after removal: %+v", s)
	}
}
