package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"xar/internal/geo"
)

// boundedToAll is the one-to-all search DistancesToAll replaced, kept as
// its oracle: the lazy-deletion binary-heap Dijkstra behind
// DistancesWithin, unbounded, a closure writing each settled node.
func boundedToAll(s *Searcher, source NodeID, reverse bool) []float64 {
	out := make([]float64, s.g.NumNodes())
	for i := range out {
		out[i] = math.Inf(1)
	}
	s.bounded(source, math.Inf(1), func(v NodeID, d float64) bool {
		out[v] = d
		return true
	}, reverse)
	return out
}

// checkKernel compares both directions of the kernel with the oracle from
// up to sources sources, bit for bit, and returns how many distances were
// +Inf.
func checkKernel(t *testing.T, g *Graph, sources int, r *rand.Rand) (unreachable int) {
	t.Helper()
	kernel, oracle := NewSearcher(g), NewSearcher(g)
	var got []float64
	for i := 0; i < sources; i++ {
		src := NodeID(r.Intn(g.NumNodes()))
		for _, reverse := range []bool{false, true} {
			if reverse {
				got = kernel.DistancesToAllReverse(src, got)
			} else {
				got = kernel.DistancesToAll(src, got)
			}
			want := boundedToAll(oracle, src, reverse)
			if len(got) != len(want) {
				t.Fatalf("kernel returned %d distances for %d nodes", len(got), len(want))
			}
			for v := range want {
				if got[v] != want[v] { // ==, not a tolerance: +Inf == +Inf, and no NaN arises
					t.Fatalf("source %d reverse=%v node %d: kernel %v, oracle %v (diff %g)", src, reverse, v, got[v], want[v], got[v]-want[v])
				}
				if math.IsInf(want[v], 1) {
					unreachable++
				}
			}
		}
	}
	return unreachable
}

func TestDistancesToAllMatchesBoundedSearchExactly(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, dims := range [][2]int{{24, 14}, {40, 22}} {
		cfg := DefaultCityConfig(dims[0], dims[1], 42+int64(dims[0]))
		cfg.RemoveEdgeFrac = 0.08 // one-way streets stay on; more detours than the default 3 %
		city, err := GenerateCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkKernel(t, city.Graph, 100, r)
	}
}

// An unreachable component stays +Inf in both directions, and the one-way
// bridge into it shows in exactly one of them.
func TestDistancesToAllUnreachableComponent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 30, 0.15)
	island := g.NumNodes()
	for i := 0; i < 6; i++ {
		g.AddNode(geo.Point{Lat: 41 + float64(i)*1e-3, Lng: -73})
	}
	for i := 0; i < 5; i++ {
		if err := g.AddBidirectional(NodeID(island+i), NodeID(island+i+1), 0, 10, ClassStreet); err != nil {
			t.Fatal(err)
		}
	}
	if checkKernel(t, g, 60, r) == 0 {
		t.Fatal("no unreachable pair: the island is connected")
	}
	s := NewSearcher(g)
	if d := s.DistancesToAll(0, nil); !math.IsInf(d[island], 1) {
		t.Fatalf("mainland reaches the island at %v", d[island])
	}
	if err := g.AddEdge(NodeID(island), 0, 0, 10, ClassStreet); err != nil {
		t.Fatal(err)
	}
	// The same Searcher sees the edge added after its first sweep.
	if d := s.DistancesToAll(NodeID(island+5), nil); math.IsInf(d[0], 1) {
		t.Fatal("island cannot reach the mainland over the new bridge")
	}
	if d := s.DistancesToAll(0, nil); !math.IsInf(d[island], 1) {
		t.Fatalf("the bridge is one-way, yet mainland reaches the island at %v", d[island])
	}
	checkKernel(t, g, 60, r)
}

// Arc lengths spread over six decades, far past maxBucketSpan: the buckets
// are wider than the short arcs, so nodes are improved inside the bucket
// being emptied and expanded again. Coincident nodes, so no chord limits
// an explicit length.
func TestDistancesToAllWideArcSpread(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := &Graph{}
	const n = 300
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{Lat: 40.7, Lng: -74})
	}
	for i := 0; i < 4*n; i++ {
		a, b := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if a == b {
			continue
		}
		if err := g.AddEdge(a, b, math.Pow(10, 6*r.Float64()), 10, ClassStreet); err != nil {
			t.Fatal(err)
		}
	}
	if f := flatten(g.out, g.edgeCnt); f.mask+1 < maxBucketSpan {
		t.Fatalf("ring of %d slots: the spread does not reach maxBucketSpan", f.mask+1)
	}
	checkKernel(t, g, 100, r)
}

func TestDistancesToAllReusesCallerSlice(t *testing.T) {
	g := buildTriangle(t)
	s := NewSearcher(g)
	buf := make([]float64, 8)
	d := s.DistancesToAll(0, buf)
	if len(d) != g.NumNodes() || &d[0] != &buf[0] {
		t.Fatalf("a slice with room for every node was not reused (len %d)", len(d))
	}
	if allocs := testing.AllocsPerRun(20, func() { d = s.DistancesToAll(1, d) }); allocs != 0 {
		t.Fatalf("%v allocations a sweep into a reused slice", allocs)
	}
	// No arcs at all: the source is the one settled node.
	lone := &Graph{}
	lone.AddNode(geo.Point{Lat: 40.7, Lng: -74})
	lone.AddNode(geo.Point{Lat: 40.8, Lng: -74})
	if d := NewSearcher(lone).DistancesToAll(1, nil); !math.IsInf(d[0], 1) || d[1] != 0 {
		t.Fatalf("arcless graph: %v", d)
	}
}
