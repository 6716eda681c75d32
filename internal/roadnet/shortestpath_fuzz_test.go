package roadnet

import (
	"math/rand"
	"testing"

	"xar/internal/geo"
)

// fuzzGraph decodes data into a graph of 2 to 48 nodes in a 5 km square,
// one-way arcs whose lengths lie in [chord, 3·chord) (some pairs
// unreachable, unless the bytes say otherwise), and up to 64 query pairs.
// Missing bytes read as zero. The first bytes also pick the ALT seed
// count and the CH core size.
func fuzzGraph(t testing.TB, data []byte) (g *Graph, seeds, core int, pairs [][2]NodeID) {
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
	g = &Graph{}
	origin := geo.Point{Lat: 40.7, Lng: -74.0}
	for i := 0; i < n; i++ {
		p := geo.Destination(origin, 0, float64(next())*20)
		g.AddNode(geo.Destination(p, 90, float64(next())*20))
	}
	for arcs := next() % (4*n + 1); arcs > 0; arcs-- {
		from, to, f := NodeID(next()%n), NodeID(next()%n), next()
		if from == to {
			continue
		}
		if err := g.AddEdge(from, to, g.chord(from, to)*(1+float64(f)/128), 10, ClassStreet); err != nil {
			t.Fatal(err)
		}
	}
	pairs = append(pairs, [2]NodeID{0, NodeID(n - 1)})
	for len(data) > 0 && len(pairs) < 64 {
		pairs = append(pairs, [2]NodeID{NodeID(next() % n), NodeID(next() % n)})
	}
	return g, seeds, core, pairs
}

// FuzzShortestPathsExact decodes a small graph and a list of pairs, and
// requires A*, ALT and CH each to answer every pair with DistancesToAll's
// distance bit for bit, a path whose PathLength is that distance, and no
// path exactly where it is +Inf.
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
		g, seeds, core, pairs := fuzzGraph(t, data)
		routers := routersOf(t, g, seeds, CHConfig{CoreSize: core})
		oracle := NewSearcher(g)
		var want []float64
		for _, p := range pairs {
			want = oracle.DistancesToAll(p[0], want)
			for _, rt := range routers {
				checkExact(t, g, rt, p[0], p[1], want[p[1]])
			}
		}
	})
}
