package roadnet

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestCHValidation(t *testing.T) {
	if _, err := BuildCH(&Graph{}, CHConfig{}); err == nil {
		t.Fatal("empty graph must be rejected")
	}
}

// checkAgainstReference compares one CH query against the exact A*
// reference: reachability, distance (1e-6 m tolerance for float
// association), and path validity (a real edge walk whose summed length
// is the reported distance).
func checkAgainstReference(t *testing.T, g *Graph, plain *Searcher, cs *CHSearcher, a, b NodeID) {
	t.Helper()
	want := plain.ShortestPath(a, b)
	got := cs.ShortestPath(a, b)
	if want.Reachable() != got.Reachable() {
		t.Fatalf("%d→%d: reachability differs (CH %v, reference %v)", a, b, got.Dist, want.Dist)
	}
	if !want.Reachable() {
		if got.Path != nil {
			t.Fatalf("%d→%d: unreachable pair returned a path", a, b)
		}
		return
	}
	if math.Abs(want.Dist-got.Dist) > 1e-6 {
		t.Fatalf("%d→%d: CH %v vs reference %v (diff %g)", a, b, got.Dist, want.Dist, got.Dist-want.Dist)
	}
	if got.Path[0] != a || got.Path[len(got.Path)-1] != b {
		t.Fatalf("%d→%d: path endpoints %d…%d", a, b, got.Path[0], got.Path[len(got.Path)-1])
	}
	if pl, err := g.PathLength(got.Path); err != nil || math.Abs(pl-got.Dist) > 1e-6 {
		t.Fatalf("%d→%d: CH path invalid (len %v, err %v, dist %v)", a, b, pl, err, got.Dist)
	}
}

// TestCHMatchesDijkstraCity checks exact-distance equality on synthetic
// city networks across several seeds: 4500 random pairs here plus the
// ~9600 exhaustive pairs of TestCHMatchesDijkstraRandomGraphs put the
// total reference comparison above 10k pairs.
func TestCHMatchesDijkstraCity(t *testing.T) {
	// CoreSize 0 (default) leaves these small graphs entirely inside the
	// distance table; CoreSize 32 forces deep contraction so shortcut
	// insertion, stall-on-demand, and middle-node unpacking are all on
	// the tested path.
	for _, coreSize := range []int{0, 32} {
		for _, seed := range []int64{3, 7, 11} {
			city := genTestCity(t, 16, 10, seed)
			g := city.Graph
			ch, err := BuildCH(g, CHConfig{CoreSize: coreSize})
			if err != nil {
				t.Fatal(err)
			}
			plain := NewSearcher(g)
			cs := ch.NewSearcher()
			r := rand.New(rand.NewSource(seed * 100))
			for trial := 0; trial < 1500; trial++ {
				a := NodeID(r.Intn(g.NumNodes()))
				b := NodeID(r.Intn(g.NumNodes()))
				checkAgainstReference(t, g, plain, cs, a, b)
			}
		}
	}
}

// TestCHMatchesDijkstraRandomGraphs runs the exhaustive all-pairs
// comparison on sparse random directed graphs, whose one-way arcs make
// many pairs unreachable — the disconnected half of the property.
func TestCHMatchesDijkstraRandomGraphs(t *testing.T) {
	for _, seed := range []int64{1, 2, 5, 8, 13, 21} {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 40, 0.06)
		// CoreSize 8 on a 40-node graph forces contraction of most of
		// the graph (the default would cover it all with the table).
		ch, err := BuildCH(g, CHConfig{CoreSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		plain := NewSearcher(g)
		cs := ch.NewSearcher()
		unreachable := 0
		for i := 0; i < g.NumNodes(); i++ {
			for j := 0; j < g.NumNodes(); j++ {
				checkAgainstReference(t, g, plain, cs, NodeID(i), NodeID(j))
				if !plain.ShortestPath(NodeID(i), NodeID(j)).Reachable() {
					unreachable++
				}
			}
		}
		if unreachable == 0 {
			t.Fatalf("seed %d: random graph had no unreachable pairs; property under-tests disconnection", seed)
		}
	}
}

// TestCHSettlesFewerNodes pins the work of the three routers as exact
// totals over the same 256 random pairs of the seed-5 80x44 city, so it
// cannot flake on a shared runner and a change that loosens a bound or
// the queue trips it: nodes CH's two cones process, and nodes the A*
// loop labels under ALT and under the chord bound. A changed total
// changes its constant here, with the reason in the change's description.
func TestCHSettlesFewerNodes(t *testing.T) {
	city := genTestCity(t, 80, 44, 5)
	g := city.Graph
	ch, err := BuildCH(g, CHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := NewALT(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	cs := ch.NewSearcher()
	as := alt.NewSearcher()
	plain := NewSearcher(g)
	r := rand.New(rand.NewSource(6))
	var chProcessed, altLabelled, plainLabelled int
	for trial := 0; trial < 256; trial++ {
		a := NodeID(r.Intn(g.NumNodes()))
		b := NodeID(r.Intn(g.NumNodes()))
		cs.ShortestPath(a, b)
		chProcessed += cs.ProcessedNodes()
		as.ShortestPath(a, b)
		altLabelled += as.LabelledNodes()
		plain.ShortestPath(a, b)
		plainLabelled += plain.LabelledNodes()
	}
	t.Logf("over 256 pairs: CH processed %d, ALT labelled %d, plain A* labelled %d", chProcessed, altLabelled, plainLabelled)
	const wantCH, wantALT, wantPlain = 1601, 56806, 112653
	if chProcessed != wantCH || altLabelled != wantALT || plainLabelled != wantPlain {
		t.Fatalf("CH %d, ALT %d, plain A* %d nodes; want exactly %d, %d, %d",
			chProcessed, altLabelled, plainLabelled, wantCH, wantALT, wantPlain)
	}
}

// TestCHPooledRaceStress drives a shared CH through a sync.Pool of
// searchers from 8 goroutines — the engine's checkout pattern — and
// cross-checks every result against a per-goroutine exact reference.
// Run with -race.
func TestCHPooledRaceStress(t *testing.T) {
	city := genTestCity(t, 16, 10, 9)
	g := city.Graph
	ch, err := BuildCH(g, CHConfig{CoreSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	pool := sync.Pool{New: func() any { return ch.NewSearcher() }}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			plain := NewSearcher(g)
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				a := NodeID(r.Intn(g.NumNodes()))
				b := NodeID(r.Intn(g.NumNodes()))
				cs := pool.Get().(*CHSearcher)
				got := cs.ShortestPath(a, b)
				pool.Put(cs)
				want := plain.ShortestPath(a, b)
				if want.Reachable() != got.Reachable() ||
					(want.Reachable() && math.Abs(want.Dist-got.Dist) > 1e-6) {
					errs <- errors.New("pooled CH result diverged from reference")
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func BenchmarkShortestPathCH(b *testing.B) {
	city, err := GenerateCity(DefaultCityConfig(40, 22, 5))
	if err != nil {
		b.Fatal(err)
	}
	g := city.Graph
	ch, err := BuildCH(g, CHConfig{})
	if err != nil {
		b.Fatal(err)
	}
	s := ch.NewSearcher()
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
