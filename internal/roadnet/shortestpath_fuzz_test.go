package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"xar/internal/geo"
)

// fuzzGraph decodes data into a graph of 2 to 48 nodes in a 5 km square,
// one-way arcs whose lengths lie in [chord, 3·chord) (some pairs
// unreachable, unless the bytes say otherwise), and up to 64 query pairs.
// Missing bytes read as zero. The first bytes also pick the ALT seed
// count and the CH core size. gT is g transposed, built arc by arc
// through its own builder.
func fuzzGraph(t testing.TB, data []byte) (g, gT *Graph, seeds, core int, pairs [][2]NodeID) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%47
	seeds, core = 1+next()%8, 1+next()%n
	b, bT := &Builder{}, &Builder{}
	origin := geo.Point{Lat: 40.7, Lng: -74.0}
	for i := 0; i < n; i++ {
		p := geo.Destination(origin, 0, float64(next())*20)
		p = geo.Destination(p, 90, float64(next())*20)
		b.AddNode(p)
		bT.AddNode(p)
	}
	for arcs := next() % (4*n + 1); arcs > 0; arcs-- {
		from, to, f := NodeID(next()%n), NodeID(next()%n), next()
		if from == to {
			continue
		}
		length := b.g.chord(from, to) * (1 + float64(f)/128)
		if err := b.AddEdge(from, to, length, 10, ClassStreet); err != nil {
			t.Fatal(err)
		}
		if err := bT.AddEdge(to, from, length, 10, ClassStreet); err != nil {
			t.Fatal(err)
		}
	}
	pairs = append(pairs, [2]NodeID{0, NodeID(n - 1)})
	for len(data) > 0 && len(pairs) < 64 {
		pairs = append(pairs, [2]NodeID{NodeID(next() % n), NodeID(next() % n)})
	}
	return b.Build(), bT.Build(), seeds, core, pairs
}

// FuzzShortestPathsExact decodes a small graph and a list of pairs, and
// requires A*, ALT and CH each to answer every pair with DistancesToAll's
// distance bit for bit, a path whose PathLength is that distance, and no
// path exactly where it is +Inf. The reverse kernels, which read reverse
// rows derived from the forward ones, must equal DistancesToAll on the
// transposed graph bit for bit: DistancesToAllReverse everywhere, and
// DistancesWithinReverse inside a radius of the pair's target distance
// (every reachable node of distance up to it, the target's ties
// included, and no other).
func FuzzShortestPathsExact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 10, 0, 20, 0, 2, 0, 1, 0, 1, 2, 64})
	r := rand.New(rand.NewSource(1))
	for _, size := range []int{64, 256, 600} {
		seed := make([]byte, size)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, gT, seeds, core, pairs := fuzzGraph(t, data)
		routers := routersOf(t, g, seeds, CHConfig{CoreSize: core})
		oracle, oracleT, rev := NewSearcher(g), NewSearcher(gT), NewSearcher(g)
		var want, wantT, got []float64
		for _, p := range pairs {
			want = oracle.DistancesToAll(p[0], want)
			for _, rt := range routers {
				checkExact(t, g, rt, p[0], p[1], want[p[1]])
			}
			wantT = oracleT.DistancesToAll(p[0], wantT)
			got = rev.DistancesToAllReverse(p[0], got)
			inside := 0
			for v, d := range wantT {
				if got[v] != d { // ==: +Inf == +Inf, and no NaN arises
					t.Fatalf("DistancesToAllReverse(%d) at %d: %v, transposed %v", p[0], v, got[v], d)
				}
				if d <= wantT[p[1]] && !math.IsInf(d, 1) {
					inside++
				}
			}
			rev.DistancesWithinReverse(p[0], wantT[p[1]], func(v NodeID, d float64) bool {
				if d != wantT[v] {
					t.Fatalf("DistancesWithinReverse(%d) at %d: %v, transposed %v", p[0], v, d, wantT[v])
				}
				inside--
				return true
			})
			if inside != 0 {
				t.Fatalf("DistancesWithinReverse(%d, %v) settled %d nodes fewer than lie inside", p[0], wantT[p[1]], inside)
			}
		}
	})
}
