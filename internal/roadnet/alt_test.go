package roadnet

import (
	"math"
	"math/rand"
	"testing"
)

func TestALTValidation(t *testing.T) {
	if _, err := NewALT(&Graph{}, 4); err == nil {
		t.Fatal("empty graph must be rejected")
	}
}

func TestALTSeedCount(t *testing.T) {
	city := genTestCity(t, 15, 10, 3)
	a, err := NewALT(city.Graph, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSeeds() != 6 {
		t.Fatalf("seeds = %d", a.NumSeeds())
	}
	// k larger than the graph clamps.
	small := &Graph{}
	p := city.Graph.Point(0)
	small.AddNode(p)
	n2 := small.AddNode(city.Graph.Point(1))
	_ = small.AddBidirectional(0, n2, 0, 10, ClassStreet)
	a2, err := NewALT(small, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a2.NumSeeds() != 2 {
		t.Fatalf("clamped seeds = %d", a2.NumSeeds())
	}
	// k <= 0 defaults.
	a3, err := NewALT(city.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a3.NumSeeds() != 8 {
		t.Fatalf("default seeds = %d", a3.NumSeeds())
	}
}

func TestALTMatchesPlainAStar(t *testing.T) {
	city := genTestCity(t, 20, 12, 7)
	g := city.Graph
	alt, err := NewALT(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewSearcher(g)
	fast := alt.NewSearcher()
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 150; trial++ {
		a := NodeID(r.Intn(g.NumNodes()))
		b := NodeID(r.Intn(g.NumNodes()))
		want := plain.ShortestPath(a, b)
		got := fast.ShortestPath(a, b)
		if want.Reachable() != got.Reachable() {
			t.Fatalf("%d→%d reachability differs", a, b)
		}
		if want.Reachable() && math.Abs(want.Dist-got.Dist) > 1e-6 {
			t.Fatalf("%d→%d: ALT %v vs A* %v", a, b, got.Dist, want.Dist)
		}
		if got.Reachable() {
			if pl, err := g.PathLength(got.Path); err != nil || math.Abs(pl-got.Dist) > 1e-6 {
				t.Fatalf("%d→%d: ALT path invalid (%v, %v)", a, b, pl, err)
			}
		}
	}
}

func TestALTMatchesOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 30, 0.12)
		alt, err := NewALT(g, 5)
		if err != nil {
			t.Fatal(err)
		}
		plain := NewSearcher(g)
		fast := alt.NewSearcher()
		for i := 0; i < g.NumNodes(); i += 3 {
			for j := 0; j < g.NumNodes(); j += 5 {
				want := plain.ShortestPath(NodeID(i), NodeID(j))
				got := fast.ShortestPath(NodeID(i), NodeID(j))
				if want.Reachable() != got.Reachable() ||
					(want.Reachable() && math.Abs(want.Dist-got.Dist) > 1e-6) {
					t.Fatalf("trial %d %d→%d: ALT %v vs A* %v", trial, i, j, got.Dist, want.Dist)
				}
			}
		}
	}
}

func TestALTHeuristicAdmissible(t *testing.T) {
	city := genTestCity(t, 15, 10, 3)
	g := city.Graph
	alt, err := NewALT(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewSearcher(g)
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		v := NodeID(r.Intn(g.NumNodes()))
		tgt := NodeID(r.Intn(g.NumNodes()))
		res := plain.ShortestPath(v, tgt)
		if !res.Reachable() {
			continue
		}
		if h := alt.heuristic(v, tgt); h > res.Dist+1e-6 {
			t.Fatalf("heuristic %v exceeds true distance %v for %d→%d", h, res.Dist, v, tgt)
		}
	}
}

func TestALTSettlesFewerNodes(t *testing.T) {
	city := genTestCity(t, 30, 16, 5)
	g := city.Graph
	alt, err := NewALT(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	fast := alt.NewSearcher()
	plain := NewSearcher(g)
	r := rand.New(rand.NewSource(6))

	var altSettled, plainSettled int
	for trial := 0; trial < 40; trial++ {
		a := NodeID(r.Intn(g.NumNodes()))
		b := NodeID(r.Intn(g.NumNodes()))
		fast.ShortestPath(a, b)
		altSettled += fast.SettledNodes()
		plain.ShortestPath(a, b)
		plainSettled += plain.SettledNodes()
	}
	if altSettled >= plainSettled {
		t.Fatalf("ALT settled %d nodes, plain A* %d; expected a reduction", altSettled, plainSettled)
	}
}

func BenchmarkShortestPathPlainAStar(b *testing.B) {
	city, err := GenerateCity(DefaultCityConfig(40, 22, 5))
	if err != nil {
		b.Fatal(err)
	}
	g := city.Graph
	s := NewSearcher(g)
	r := rand.New(rand.NewSource(1))
	pairs := make([][2]NodeID, 64)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(r.Intn(g.NumNodes())), NodeID(r.Intn(g.NumNodes()))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		s.ShortestPath(p[0], p[1])
	}
}

func BenchmarkShortestPathALT(b *testing.B) {
	city, err := GenerateCity(DefaultCityConfig(40, 22, 5))
	if err != nil {
		b.Fatal(err)
	}
	g := city.Graph
	alt, err := NewALT(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	s := alt.NewSearcher()
	r := rand.New(rand.NewSource(1))
	pairs := make([][2]NodeID, 64)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(r.Intn(g.NumNodes())), NodeID(r.Intn(g.NumNodes()))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		s.ShortestPath(p[0], p[1])
	}
}
