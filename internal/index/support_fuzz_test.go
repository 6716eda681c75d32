package index

import (
	"math"
	"math/rand"
	"testing"

	"xar/internal/discretize"
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
//
// A budget is mostly in [0, 3000) m, but may also be NaN, which Insert
// and Reregister must refuse; the largest float64, past any diameter, so
// no neighbour row is cut; or a tie at the cut, the distance from a route
// node's cluster to one entry of its row. The ride may run on a second
// discretization of the same city whose landmarks serve only nodes 100 m
// away, where almost half the nodes — stops and via-points among them —
// lie outside every cluster.
func FuzzSupportTable(f *testing.F) {
	d := testWorld(f)
	g := d.City().Graph
	cfg := discretize.DefaultConfig()
	cfg.MaxDriveToLandmark = 100
	sparse, err := discretize.Build(d.City(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	loose := roadnet.InvalidNode // a node of the sparse world in no cluster
	for v := roadnet.NodeID(0); v < roadnet.NodeID(g.NumNodes()) && loose < 0; v++ {
		if sparse.ClusterOfNode(v) < 0 {
			loose = v
		}
	}
	if loose < 0 {
		f.Fatal("every node of the sparse world is in a cluster")
	}

	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 10, 1, 200, 0, 9, 20, 3, 2, 7, 50, 50, 50})
	r := rand.New(rand.NewSource(1))
	for _, size := range []int{16, 32} {
		seed := make([]byte, size)
		r.Read(seed)
		f.Add(seed)
	}
	// One seed per budget shape, then via-points outside every cluster.
	// Bytes: world, stop count, three stop words, a departure word, and
	// per budget a selector (5 tie, 6 largest, 7 NaN, else plain), a word
	// and, for a tie, the row entry; then two Advance steps.
	f.Add([]byte{0, 1, 0, 10, 0, 200, 1, 0, 0, 9, 5, 0, 7, 5, 0, 3, 32, 6, 6}) // a tie at the cut, then 800 m
	f.Add([]byte{0, 1, 0, 10, 0, 200, 1, 0, 0, 9, 6, 0, 0, 5, 0, 3, 9, 6, 6})  // past the diameter, then a tie
	f.Add([]byte{0, 1, 0, 10, 0, 200, 1, 0, 0, 9, 7, 0, 0})                    // NaN at Insert
	f.Add([]byte{0, 1, 0, 10, 0, 200, 1, 0, 0, 9, 0, 3, 32, 7, 0, 0, 6, 6})    // NaN at Reregister
	f.Add([]byte{1, 1, 0, 10, byte(loose >> 8), byte(loose), 1, 0, 0, 9, 0, 7, 208, 0, 1, 0, 6, 6})
	worlds := [2]*discretize.Discretization{d, sparse}
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
		d := worlds[next()%2]
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
		ix := New(d)
		ride := makeLegRide(t, d, stops, float64(word()%7200), 0)
		budget := func() float64 {
			sel, w := next()%8, word()
			switch sel {
			case 5:
				if c := d.ClusterOfNode(ride.Route[w%len(ride.Route)]); c >= 0 {
					row := ix.neighbors[c]
					return float64(row[next()%len(row)].Dist)
				}
			case 6:
				return math.MaxFloat64
			case 7:
				return math.NaN()
			}
			return float64(w % 3000)
		}
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
		ride.DetourLimit = budget()
		if err := ix.Insert(ride); math.IsNaN(ride.DetourLimit) {
			if err == nil || ix.NumRides() != 0 {
				t.Fatalf("Insert took a NaN detour limit (err %v, %d rides)", err, ix.NumRides())
			}
			return
		} else if err != nil {
			t.Fatal(err)
		}
		check("after Insert")
		kept := ride.DetourLimit
		ride.DetourLimit = budget()
		if err := ix.Reregister(ride); math.IsNaN(ride.DetourLimit) {
			if err == nil {
				t.Fatal("Reregister took a NaN detour limit")
			}
			ride.DetourLimit = kept // the registration must be the kept budget's
		} else if err != nil {
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
