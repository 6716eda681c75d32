package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"xar/internal/memsize"
	"xar/internal/roadnet"
)

// TestSupportRecordSize pins the two record layouts of a ride's support
// table that the memory figures rest on: a support without its cluster
// and a directory key. (TestPostingBytesPerEntry pins a posting's.)
func TestSupportRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Support{}); got != 24 {
		t.Errorf("Support is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(dirEntry{}); got != 8 {
		t.Errorf("directory entry is %d bytes, want 8", got)
	}
}

// randomRide builds a ride between two random distinct nodes.
func randomRide(t testing.TB, rng *rand.Rand, ix *Index) *Ride {
	t.Helper()
	g := ix.disc.City().Graph
	from := roadnet.NodeID(rng.Intn(g.NumNodes()))
	to := roadnet.NodeID(rng.Intn(g.NumNodes()))
	if from == to {
		to = (to + 1) % roadnet.NodeID(g.NumNodes())
	}
	return makeRide(t, ix.disc, ix, from, to, float64(rng.Intn(7200)), float64(rng.Intn(2000)))
}

// listedSlotsAreOccupied walks every posting list directly: each entry
// must name an occupied slot whose ride has supports in that cluster. It
// reads no ride through a listed slot before checking the slot, so an
// index that left a freed slot's entries behind fails here with a
// message, not with a nil dereference.
func listedSlotsAreOccupied(t *testing.T, ix *Index, when string) {
	t.Helper()
	for c := range ix.clusters {
		for _, b := range ix.clusters[c].blocks {
			for _, slot := range b.slot {
				if slot < 0 || int(slot) >= len(ix.slots) || ix.slots[slot] == nil {
					t.Fatalf("%s: cluster %d lists slot %d, which is free or out of range", when, c, slot)
				}
				if r := ix.slots[slot]; len(r.Supports(c)) == 0 {
					t.Fatalf("%s: cluster %d lists slot %d, whose ride %d has no supports there", when, c, slot, r.ID)
				}
			}
		}
	}
}

// TestSlotLifecycleAgainstModel drives insert / remove / reregister /
// advance against a model of the slot table — ride → slot, a LIFO stack
// of released slots, the peak number of rides registered at once — and
// checks after every operation what the search relies on: the table is
// as long as that peak and no longer, a released slot goes to the next
// insert, no posting entry names a free slot, and a window read through a
// recycled slot reports the ride that holds it now and never the one
// that held it before. The clones of the survivors then go into a second
// index and take that index's slots, not the ones they carry.
func TestSlotLifecycleAgainstModel(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	rng := rand.New(rand.NewSource(2210))
	all := func(c int) []RideID { return ix.PotentialRides(c, math.Inf(-1), math.Inf(1), nil) }

	slotOf := map[RideID]int32{}
	var live []RideID
	var free []int32          // the model's stack of released slots
	gone := map[RideID]bool{} // every ride ever removed
	peak, recycled, reregistered, advanced := 0, 0, 0, 0
	const ops = 2400
	for op := 0; op < ops; op++ {
		// Inserts lead until the fleet is a few dozen rides, then the mix
		// hovers — so slots are released and reused all the way through.
		switch p := rng.Intn(10); {
		case p < 3 || len(live) < 30 && p < 6: // insert
			r := randomRide(t, rng, ix)
			want, reuse := int32(len(slotOf)), len(free) > 0
			if reuse {
				want, free = free[len(free)-1], free[:len(free)-1]
			}
			if err := ix.Insert(r); err != nil {
				t.Fatal(err)
			}
			if r.slot != want {
				t.Fatalf("op %d: ride %d got slot %d, the model says %d (LIFO reuse, else the next new slot)", op, r.ID, r.slot, want)
			}
			slotOf[r.ID] = r.slot
			live = append(live, r.ID)
			if reuse {
				recycled++
				// Every window the new ride is in reports it, and no window
				// anywhere reports a ride that is gone.
				for _, c := range r.ReachableClusters() {
					if ids := all(c); !slices.Contains(ids, r.ID) {
						t.Fatalf("op %d: cluster %d does not report ride %d in recycled slot %d: %v", op, c, r.ID, r.slot, ids)
					}
				}
			}
		case p < 5: // remove
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			if !ix.Remove(id) {
				t.Fatalf("op %d: failed to remove live ride %d", op, id)
			}
			free = append(free, slotOf[id])
			delete(slotOf, id)
			gone[id] = true
			live = slices.Delete(live, i, i+1)
		case p < 7: // reregister: another budget, sometimes no seat, sometimes a seat back
			if len(live) == 0 {
				continue
			}
			r := ix.Ride(live[rng.Intn(len(live))])
			r.DetourLimit = float64(rng.Intn(2000))
			r.SeatsAvail = rng.Intn(3)
			if err := ix.Reregister(r); err != nil {
				t.Fatal(err)
			}
			reregistered++
		default: // advance
			if len(live) == 0 {
				continue
			}
			r := ix.Ride(live[rng.Intn(len(live))])
			if err := ix.Advance(r.ID, r.Progress+rng.Intn(12)); err != nil {
				t.Fatal(err)
			}
			advanced++
		}
		peak = max(peak, len(live))
		if len(ix.slots) != peak {
			t.Fatalf("op %d: slot table has %d slots, at most %d rides were ever registered at once", op, len(ix.slots), peak)
		}
		if !slices.Equal(ix.free, free) {
			t.Fatalf("op %d: free list %v, model %v", op, ix.free, free)
		}
		for id, slot := range slotOf {
			if r := ix.RideAt(slot); r == nil || r.ID != id || r.slot != slot || ix.Ride(id) != r {
				t.Fatalf("op %d: ride %d is not at slot %d", op, id, slot)
			}
		}
		listedSlotsAreOccupied(t, ix, fmt.Sprintf("op %d", op))
		if op%16 == 0 || op == ops-1 {
			for c := 0; c < d.NumClusters(); c++ {
				for _, id := range all(c) {
					if gone[id] {
						t.Fatalf("op %d: cluster %d reports removed ride %d", op, c, id)
					}
				}
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if recycled < 200 || reregistered < 200 || advanced < 200 || peak < 30 {
		t.Fatalf("%d recycled inserts, %d reregisters, %d advances, peak %d: the sequence must exercise each", recycled, reregistered, advanced, peak)
	}

	// Clones into a second index, highest slot first: each takes the next
	// slot of that index whatever it carried, and the original stays put.
	second := newTestIndex(t, d)
	order := slices.Clone(live)
	slices.SortFunc(order, func(a, b RideID) int { return int(slotOf[b] - slotOf[a]) })
	for i, id := range order {
		c := ix.Ride(id).Clone()
		if c.slot != slotOf[id] {
			t.Fatalf("clone of ride %d carries slot %d, the original holds %d", id, c.slot, slotOf[id])
		}
		if err := second.Insert(c); err != nil {
			t.Fatal(err)
		}
		if c.slot != int32(i) || second.RideAt(c.slot) != c {
			t.Fatalf("clone of ride %d got slot %d of the second index, want %d", id, c.slot, i)
		}
		if ix.Ride(id).slot != slotOf[id] {
			t.Fatalf("inserting a clone moved the original ride %d", id)
		}
	}
	listedSlotsAreOccupied(t, second, "second index")
	if err := second.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < d.NumClusters(); c++ {
		a, b := all(c), second.PotentialRides(c, math.Inf(-1), math.Inf(1), nil)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("cluster %d: the second index lists %v, the first %v", c, b, a)
		}
	}
}

// TestSupportsThroughDirectoryEqualsLinearFilter: for every ride of a
// dense fleet and every cluster — the absent ones, one past the last
// cluster and the sentinel's own key included — Supports(c) is what a
// linear filter of the ride's independently derived records yields, when
// the ride is inserted and as Advance compacts its table; a full ride
// has no table and supports nothing.
func TestSupportsThroughDirectoryEqualsLinearFilter(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	g := d.City().Graph
	rng := rand.New(rand.NewSource(9))
	k := d.NumClusters()
	check := func(r *Ride, when string) (present, absent int) {
		t.Helper()
		ref := referenceSupports(ix, r)
		for c := 0; c <= k; c++ {
			var want []Support
			earliest := math.Inf(1)
			for _, s := range ref {
				if int(s.Cluster) == c {
					want = append(want, s.Support)
					earliest = min(earliest, s.ETA)
				}
			}
			got := r.Supports(c)
			if !slices.Equal(got, want) {
				t.Fatalf("ride %d %s: Supports(%d) = %d records, a linear filter finds %d", r.ID, when, c, len(got), len(want))
			}
			if eta, ok := r.ListETA(c); ok != (len(want) > 0) || ok && eta != earliest {
				t.Fatalf("ride %d %s: ListETA(%d) = %v, %v, want %v", r.ID, when, c, eta, ok, earliest)
			}
			if len(want) > 0 {
				present++
			} else {
				absent++
			}
		}
		for _, c := range []int{-1, k + 1, dirEnd} {
			if got := r.Supports(c); len(got) != 0 {
				t.Fatalf("ride %d %s: Supports(%d) = %d records for a cluster that does not exist", r.ID, when, c, len(got))
			}
		}
		return present, absent
	}
	present, absent, compactions := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		stops := make([]roadnet.NodeID, 2+rng.Intn(3))
		for i := range stops {
			stops[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
			if i > 0 && stops[i] == stops[i-1] {
				stops[i] = (stops[i] + 1) % roadnet.NodeID(g.NumNodes())
			}
		}
		r := makeLegRide(t, d, ix, stops, float64(rng.Intn(3600)), float64(500+rng.Intn(2000)))
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
		p, a := check(r, "after Insert")
		present, absent = present+p, absent+a
	}
	ix.Rides(func(r *Ride) bool {
		for pos := rng.Intn(6); pos < len(r.Route); pos += 1 + rng.Intn(len(r.Route)/3+1) {
			before := len(r.support)
			if err := ix.Advance(r.ID, pos); err != nil {
				t.Fatal(err)
			}
			if len(r.support) < before {
				compactions++
			}
			check(r, "after Advance")
		}
		return true
	})
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if present == 0 || absent == 0 || compactions < 100 {
		t.Fatalf("%d present and %d absent (ride, cluster) pairs, %d compactions: want all three", present, absent, compactions)
	}

	full := makeRide(t, d, ix, 0, roadnet.NodeID(g.NumNodes()-1), 0, 1500)
	full.SeatsAvail = 0
	if err := ix.Insert(full); err != nil {
		t.Fatal(err)
	}
	if full.support != nil || full.dir != nil {
		t.Fatalf("a full ride has a table of %d supports and a directory of %d keys", len(full.support), len(full.dir))
	}
	for c := -1; c <= k; c++ {
		if got := full.Supports(c); len(got) != 0 {
			t.Fatalf("a full ride supports cluster %d", c)
		}
	}
}

// TestInconsistenciesCatchSlotAndDirectoryDamage breaks, one at a time,
// what the slot table and the cluster directory promise, and expects the
// audit to name each.
func TestInconsistenciesCatchSlotAndDirectoryDamage(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	from, to := pickCrossingNodes(t, d)
	a := makeRide(t, d, ix, from, to, 0, 1500)
	b := makeRide(t, d, ix, from, to, 60, 1500)
	gone := makeRide(t, d, ix, from, to, 120, 1500)
	for _, r := range []*Ride{a, b, gone} {
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	ix.Remove(gone.ID) // leaves slot 2 free
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	reported := func(detail string) bool {
		for _, inc := range ix.Inconsistencies(nil) {
			if strings.Contains(inc.Detail, detail) {
				return true
			}
		}
		return false
	}
	c := int(a.dir[0].Cluster)
	first := &ix.clusters[c].blocks[0]
	entry, cols := &first.slot[0], *first
	dirCopy := slices.Clone(a.dir)
	for name, damage := range map[string]struct {
		do, undo func()
		want     string
	}{
		"entry names a free slot":      {func() { *entry = 2 }, func() { *entry = a.slot }, "free or out of range"},
		"entry names no slot":          {func() { *entry = 99 }, func() { *entry = a.slot }, "free or out of range"},
		"slot column cut short":        {func() { first.slot = cols.slot[:1] }, func() { *first = cols }, "holds 2 ETAs and 1 slots"},
		"ETA column cut short":         {func() { first.eta = cols.eta[:1] }, func() { *first = cols }, "holds 1 ETAs and 2 slots"},
		"ride at another slot":         {func() { ix.slots[0], ix.slots[1] = b, a }, func() { ix.slots[0], ix.slots[1] = a, b }, "is not at slot"},
		"slot holds an unfiled ride":   {func() { delete(ix.rides, b.ID) }, func() { ix.rides[b.ID] = b }, "the ID map does not file there"},
		"free list misses a slot":      {func() { ix.free = nil }, func() { ix.free = []int32{2} }, "free list holds 0 slots"},
		"free list names a held slot":  {func() { ix.free[0] = 1 }, func() { ix.free[0] = 2 }, "occupied or out of range"},
		"directory keys out of order":  {func() { a.dir[0].Cluster, a.dir[1].Cluster = a.dir[1].Cluster, a.dir[0].Cluster }, func() { copy(a.dir, dirCopy) }, "not strictly ascending"},
		"directory has an empty group": {func() { a.dir[1].Start = a.dir[2].Start }, func() { copy(a.dir, dirCopy) }, "empty group"},
		"directory ends early":         {func() { a.dir[len(a.dir)-1].Start-- }, func() { copy(a.dir, dirCopy) }, "want the sentinel"},
		"directory lost its sentinel":  {func() { a.dir = a.dir[:len(a.dir)-1] }, func() { a.dir = a.dir[:len(dirCopy)] }, "want the sentinel"},
		"table without a directory":    {func() { a.dir = nil }, func() { a.dir = slices.Clone(dirCopy) }, "no cluster directory"},
	} {
		damage.do()
		if !reported(damage.want) {
			t.Errorf("%s: not reported as %q: %v", name, damage.want, ix.Inconsistencies(nil))
		}
		damage.undo()
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: damage undone, still reported: %v", name, err)
		}
	}
}

// TestMemsizeReachesSlotTableAndDirectories: the deep-size walk behind
// index_bytes_per_ride and /v1/memory's index component counts the slot
// table, the free list and every ride's directory — taking them away
// (the rides stay reachable through the ID map) shrinks the measured
// size by exactly their bytes.
func TestMemsizeReachesSlotTableAndDirectories(t *testing.T) {
	d := testWorld(t)
	ix := newTestIndex(t, d)
	rng := rand.New(rand.NewSource(4))
	var ids []RideID
	for i := 0; i < 40; i++ {
		r := randomRide(t, rng, ix)
		if err := ix.Insert(r); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	for _, id := range ids[:10] {
		ix.Remove(id)
	}
	with := memsize.Of(ix)
	want := uint64(cap(ix.slots))*uint64(unsafe.Sizeof((*Ride)(nil))) + uint64(cap(ix.free))*4
	dirs := 0
	ix.Rides(func(r *Ride) bool {
		want += uint64(cap(r.dir)) * uint64(unsafe.Sizeof(dirEntry{}))
		dirs += len(r.dir)
		return true
	})
	for _, r := range ix.rides {
		r.dir = nil
	}
	ix.slots, ix.free = nil, nil
	if without := memsize.Of(ix); dirs == 0 || with-without != want {
		t.Fatalf("the walk measured %d bytes with and %d without the slot table, free list and %d directory keys: a difference of %d, want %d", with, without, dirs, with-without, want)
	}
}
