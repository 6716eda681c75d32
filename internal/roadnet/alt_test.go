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

// TestALTSeedCount pins NewALT's seed contract: k ≤ 0 means 8, a k up
// to 8 picks k distinct seeds and fills the row with the last one's
// columns, a graph with fewer nodes gets one seed a node, and k > 8 is an
// error.
func TestALTSeedCount(t *testing.T) {
	city := genTestCity(t, 15, 10, 3)
	a, err := NewALT(city.Graph, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSeeds() != 3 {
		t.Fatalf("seeds = %d", a.NumSeeds())
	}
	for v := range a.tab {
		r := a.tab[v]
		for i := 6; i < len(r); i += 2 {
			if r[i] != r[4] || r[i+1] != r[5] {
				t.Fatalf("node %d's row %v does not repeat the last seed's columns", v, r)
			}
		}
	}
	// k larger than the graph gives one seed a node.
	small := &Builder{}
	p := city.Graph.Point(0)
	small.AddNode(p)
	n2 := small.AddNode(city.Graph.Point(1))
	_ = small.AddBidirectional(0, n2, 0, 10, ClassStreet)
	a2, err := NewALT(small.Build(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if a2.NumSeeds() != 2 || a2.seed[0] == a2.seed[1] {
		t.Fatalf("seeds on two nodes = %v", a2.seed)
	}
	// k <= 0 defaults.
	a3, err := NewALT(city.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a3.NumSeeds() != 8 {
		t.Fatalf("default seeds = %d", a3.NumSeeds())
	}
	// More than a row holds is refused.
	if _, err := NewALT(city.Graph, 9); err == nil {
		t.Fatal("9 seeds must be rejected")
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

// TestALTBoundAdmissible checks the bound the A* loop rests on with no
// tolerance: for every pair (v, t) of two graphs, unreachable pairs and
// v = t included, h(v, t) ≤ the one-to-all kernel's d(v → t), and
// h(t, t) = 0. The integer rounding, not a slack, is what makes it hold.
func TestALTBoundAdmissible(t *testing.T) {
	graphs := map[string]*Graph{
		"city30x16": genTestCity(t, 30, 16, 5).Graph,
		"scatter":   scatterGraph(t, rand.New(rand.NewSource(3)), 400),
	}
	for name, g := range graphs {
		alt, err := NewALT(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		rts := make([]altRow, n)
		for tgt := range rts {
			rts[tgt] = alt.tab[tgt].shaved()
		}
		s := NewSearcher(g)
		var dist []float64
		unreachable := 0
		for v := 0; v < n; v++ {
			dist = s.DistancesToAll(NodeID(v), dist)
			rv := &alt.tab[v]
			for tgt, d := range dist {
				h := float64(rts[tgt].bound(rv)) / quantaPerMetre
				if h > d {
					t.Fatalf("%s: h(%d, %d) = %v exceeds the driving distance %v", name, v, tgt, h, d)
				}
				if v == tgt && h != 0 {
					t.Fatalf("%s: h(%d, %d) = %v, want 0", name, v, tgt, h)
				}
				if math.IsInf(d, 1) {
					unreachable++
				}
			}
		}
		if name == "scatter" && unreachable == 0 {
			t.Fatalf("%s: no unreachable pair; the +Inf case needs some", name)
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

	var altLabelled, plainLabelled int
	for trial := 0; trial < 40; trial++ {
		a := NodeID(r.Intn(g.NumNodes()))
		b := NodeID(r.Intn(g.NumNodes()))
		fast.ShortestPath(a, b)
		altLabelled += fast.LabelledNodes()
		plain.ShortestPath(a, b)
		plainLabelled += plain.LabelledNodes()
	}
	if altLabelled >= plainLabelled {
		t.Fatalf("ALT labelled %d nodes, plain A* %d; expected a reduction", altLabelled, plainLabelled)
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

// legPairs draws n source–target pairs of g whose chord lies in [lo, hi)
// metres.
func legPairs(g *Graph, r *rand.Rand, n int, lo, hi float64) [][2]NodeID {
	pairs := make([][2]NodeID, 0, n)
	for len(pairs) < n {
		a, b := NodeID(r.Intn(g.NumNodes())), NodeID(r.Intn(g.NumNodes()))
		if c := g.chord(a, b); c >= lo && c < hi {
			pairs = append(pairs, [2]NodeID{a, b})
		}
	}
	return pairs
}

// BenchmarkShortestPathALT times warm ALT queries: random pairs of the
// 40x22 city, then the 80x44 city's short legs (chord under 1.5 km, like
// most of a replay's booking legs) and its 2–6 km pairs.
func BenchmarkShortestPathALT(b *testing.B) {
	for _, bc := range []struct {
		name       string
		rows, cols int
		lo, hi     float64
	}{
		{"random40x22", 40, 22, 0, math.Inf(1)},
		{"short80x44", 80, 44, 0, 1500},
		{"2to6km80x44", 80, 44, 2000, 6000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			city, err := GenerateCity(DefaultCityConfig(bc.rows, bc.cols, 5))
			if err != nil {
				b.Fatal(err)
			}
			alt, err := NewALT(city.Graph, 8)
			if err != nil {
				b.Fatal(err)
			}
			s := alt.NewSearcher()
			pairs := legPairs(city.Graph, rand.New(rand.NewSource(1)), 64, bc.lo, bc.hi)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				s.ShortestPath(p[0], p[1])
			}
		})
	}
}

// BenchmarkNewALT times the ALT build on the repository benchmark's
// city, 80x44 at seed 42: seed selection and 16 one-to-all sweeps, 8
// forward and 8 reverse.
func BenchmarkNewALT(b *testing.B) {
	g := genTestCity(b, 80, 44, 42).Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewALT(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}
