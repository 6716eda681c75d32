package index

import (
	"math/rand"
	"testing"

	"xar/internal/roadnet"
)

// FuzzSupportTable decodes a multi-stop ride on the small test world —
// 2 to 5 stops, a departure and a detour budget — a second budget for
// Reregister and up to 8 Advance steps, and requires after Insert, after
// Reregister and after every Advance that the ride's support table is
// the sorted reference records (segment and ETA derived from the run,
// bit for bit the route's), that CheckInvariants is clean, and that
// ListETA is, in every cluster, the earliest reference ETA there.
// Missing bytes read as zero.
func FuzzSupportTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 10, 1, 200, 0, 9, 20, 3, 2, 7, 50, 50, 50})
	r := rand.New(rand.NewSource(1))
	for _, size := range []int{16, 32} {
		seed := make([]byte, size)
		r.Read(seed)
		f.Add(seed)
	}
	d := testWorld(f)
	g := d.City().Graph
	sp := roadnet.NewSearcher(g)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		word := func() int { return next()<<8 | next() }
		stops := make([]roadnet.NodeID, 2+next()%4)
		for i := range stops {
			stops[i] = roadnet.NodeID(word() % g.NumNodes())
			if i > 0 && stops[i] == stops[i-1] {
				stops[i] = (stops[i] + 1) % roadnet.NodeID(g.NumNodes())
			}
			if i > 0 && !sp.ShortestPath(stops[i-1], stops[i]).Reachable() {
				t.Skipf("no route %d→%d", stops[i-1], stops[i])
			}
		}
		depart, budget, rebudget := float64(word()%7200), float64(word()%3000), float64(word()%3000)

		ix := New(d)
		ride := makeLegRide(t, d, stops, depart, budget)
		check := func(when string) {
			t.Helper()
			want := checkSupportTable(t, ix, ride, when)
			if err := ix.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			earliest := make(map[int32]float64)
			for _, s := range want {
				if e, ok := earliest[s.Cluster]; !ok || s.ETA < e {
					earliest[s.Cluster] = s.ETA
				}
			}
			for c := 0; c < d.NumClusters(); c++ {
				want, listed := earliest[int32(c)]
				if got, ok := ride.ListETA(c); ok != listed || got != want {
					t.Fatalf("%s: ListETA(%d) = %v, %v; want %v, %v", when, c, got, ok, want, listed)
				}
			}
		}
		if err := ix.Insert(ride); err != nil {
			t.Fatal(err)
		}
		check("after Insert")
		ride.DetourLimit = rebudget
		if err := ix.Reregister(ride); err != nil {
			t.Fatal(err)
		}
		check("after Reregister")
		pos := ride.Progress
		for step := 0; step < 8 && len(data) > 0; step++ {
			pos += next() % 32
			if err := ix.Advance(ride.ID, pos); err != nil {
				t.Fatal(err)
			}
			check("after Advance")
		}
	})
}
