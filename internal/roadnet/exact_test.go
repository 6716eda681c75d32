package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"xar/internal/geo"
)

// scatterGraph is a random non-lattice graph: n nodes scattered over a
// 6 km square, each joined to a few random others by one-way edges whose
// explicit lengths lie between 1× and 2× the chord (every tenth exactly
// the chord, the tightest AddEdge accepts). Sparse enough that some
// pairs are unreachable.
func scatterGraph(t testing.TB, r *rand.Rand, n int) *Graph {
	t.Helper()
	g := &Builder{}
	origin := geo.Point{Lat: 40.7, Lng: -74.0}
	for i := 0; i < n; i++ {
		p := geo.Destination(origin, 0, r.Float64()*6000)
		g.AddNode(geo.Destination(p, 90, r.Float64()*6000))
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			j := r.Intn(n)
			if j == i {
				continue
			}
			length := g.g.chord(NodeID(i), NodeID(j))
			if (i+k)%10 != 0 {
				length *= 1 + r.Float64()
			}
			if err := g.AddEdge(NodeID(i), NodeID(j), length, 10, ClassStreet); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g.Build()
}

// router is one single-pair search under test.
type router struct {
	name string
	sp   func(a, b NodeID) SPResult
}

// routersOf returns plain A*, ALT with k seeds and CH built with cfg, all
// over g.
func routersOf(t testing.TB, g *Graph, k int, cfg CHConfig) []router {
	t.Helper()
	alt, err := NewALT(g, k)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := BuildCH(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []router{
		{"astar", NewSearcher(g).ShortestPath},
		{"alt", alt.NewSearcher().ShortestPath},
		{"ch", ch.NewSearcher().ShortestPath},
	}
}

// checkExact fails t unless rt answers src→dst with want bit for bit: a
// path from src to dst whose PathLength is exactly want, or no path
// where want is +Inf.
func checkExact(t testing.TB, g *Graph, rt router, src, dst NodeID, want float64) {
	t.Helper()
	got := rt.sp(src, dst)
	if got.Dist != want {
		t.Fatalf("%s %d→%d: dist %v, Dijkstra %v (diff %g)", rt.name, src, dst, got.Dist, want, got.Dist-want)
	}
	if !got.Reachable() {
		if got.Path != nil {
			t.Fatalf("%s %d→%d: unreachable pair returned a path", rt.name, src, dst)
		}
		return
	}
	if len(got.Path) == 0 || got.Path[0] != src || got.Path[len(got.Path)-1] != dst {
		t.Fatalf("%s %d→%d: path %v", rt.name, src, dst, got.Path)
	}
	if pl, err := g.PathLength(got.Path); err != nil || pl != got.Dist {
		t.Fatalf("%s %d→%d: path length %v (err %v), dist %v", rt.name, src, dst, pl, err, got.Dist)
	}
}

// TestRoutersMatchDijkstraExactly is the exactness oracle of the three
// routers: against plain Dijkstra (DistancesToAll) from the same source,
// A*, ALT and CH each return the bit-identical distance, a path whose
// PathLength is that distance, and +Inf exactly where Dijkstra does.
func TestRoutersMatchDijkstraExactly(t *testing.T) {
	graphs := map[string]*Graph{
		"city80x44": genTestCity(t, 80, 44, 42).Graph,
		"scatter":   scatterGraph(t, rand.New(rand.NewSource(11)), 600),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			routers := routersOf(t, g, 8, CHConfig{})
			oracle := NewSearcher(g)
			r := rand.New(rand.NewSource(7))
			pairs, unreachable := 0, 0
			for s := 0; s < 100; s++ {
				src := NodeID(r.Intn(g.NumNodes()))
				want := oracle.DistancesToAll(src, nil)
				for k := 0; k < 21; k++ {
					dst := NodeID(r.Intn(g.NumNodes()))
					pairs++
					if math.IsInf(want[dst], 1) {
						unreachable++
					}
					for _, rt := range routers {
						checkExact(t, g, rt, src, dst, want[dst])
					}
				}
			}
			if pairs < 2000 {
				t.Fatalf("only %d pairs checked", pairs)
			}
			if name == "scatter" && (unreachable == 0 || unreachable == pairs) {
				t.Fatalf("scatter graph has %d/%d unreachable pairs; the +Inf case needs some of each", unreachable, pairs)
			}
		})
	}
}

// combGraph is a one-way corridor c_0→c_1→…→c_{n−1} running east, with a
// one-way road back west beside it: each c_i turns off to the back road's
// b_i, and the back road b_{n−1}→…→b_0 rejoins the corridor only at c_0.
// Toward a target ahead on the corridor, the turn-off at c_i raises the
// ALT bound by about twice the way back to c_0, far past the ring of
// buckets, so those keys wait in the overflow heap. One more node is
// isolated: a search toward it drains the heap.
func combGraph(t testing.TB, r *rand.Rand, n int) *Graph {
	t.Helper()
	g := &Builder{}
	origin := geo.Point{Lat: 40.7, Lng: -74.0}
	for i := 0; i < n; i++ {
		g.AddNode(geo.Destination(origin, 90, float64(i)*200))
	}
	for i := 0; i < n; i++ {
		g.AddNode(geo.Destination(g.g.Point(NodeID(i)), 0, 150))
	}
	g.AddNode(geo.Destination(origin, 180, 300))
	arc := func(from, to int) {
		length := g.g.chord(NodeID(from), NodeID(to)) * (1 + r.Float64()/2)
		if err := g.AddEdge(NodeID(from), NodeID(to), length, 10, ClassStreet); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if i+1 < n {
			arc(i, i+1)
		}
		arc(i, n+i)
		if i > 0 {
			arc(n+i, n+i-1)
		}
	}
	arc(n, 0)
	return g.Build()
}

// TestAStarOverflowHeap runs every pair of the comb, where keys run past
// the ring: every router must still match Dijkstra bit for bit, and the
// ALT searcher must have used its overflow heap.
func TestAStarOverflowHeap(t *testing.T) {
	g := combGraph(t, rand.New(rand.NewSource(8)), 40)
	routers := routersOf(t, g, 8, CHConfig{CoreSize: 8})
	alt, err := NewALT(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	as := alt.NewSearcher()
	routers = append(routers, router{"alt (overflow watched)", as.ShortestPath})
	oracle := NewSearcher(g)
	for src := 0; src < g.NumNodes(); src++ {
		want := oracle.DistancesToAll(NodeID(src), nil)
		for dst := range want {
			for _, rt := range routers {
				checkExact(t, g, rt, NodeID(src), NodeID(dst), want[dst])
			}
		}
	}
	if cap(as.s.ring.over) == 0 {
		t.Fatal("no key went past the ring: the comb no longer tests the overflow heap")
	}
}

// TestAStarEmptiesTheTargetsBucket pins the stop rule at its edge. The
// arcs are 130–200 m, so the buckets are 8 m wide. The target is first
// labelled 330 m through a node whose bound is 0 (key 130), while the
// 328 m route runs through a node whose key, 328, lies in the same bucket
// [328, 336) as that label: the loop must empty that bucket before it
// stops.
func TestAStarEmptiesTheTargetsBucket(t *testing.T) {
	bld := &Builder{}
	p := geo.Point{Lat: 40.7, Lng: -74.0}
	s := bld.AddNode(p)
	v := bld.AddNode(geo.Destination(p, 90, 0.1))
	b := bld.AddNode(geo.Destination(p, 0, 0.1))
	tgt := bld.AddNode(geo.Destination(p, 45, 0.2))
	for _, a := range []struct {
		from, to NodeID
		length   float64
	}{{s, v, 130}, {v, tgt, 200}, {s, b, 130}, {b, tgt, 198}} {
		if err := bld.AddEdge(a.from, a.to, a.length, 10, ClassStreet); err != nil {
			t.Fatal(err)
		}
	}
	g := bld.Build()
	h := func(u NodeID) int32 {
		if u == b {
			return 198 * quantaPerMetre
		}
		return 0
	}
	res := NewSearcher(g).astar(s, tgt, nil, h)
	if res.Dist != 328 || !slices.Equal(res.Path, []NodeID{s, b, tgt}) {
		t.Fatalf("got %v via %v, want 328 via %v", res.Dist, res.Path, []NodeID{s, b, tgt})
	}
}

// TestLabelAndRowSize pins the two records the A* loop reads for every
// node it touches: a label is 24 bytes and an ALT row is 64 bytes, one
// cache line.
func TestLabelAndRowSize(t *testing.T) {
	if n := unsafe.Sizeof(label{}); n != 24 {
		t.Fatalf("label is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(altRow{}); n != 64 {
		t.Fatalf("an ALT row is %d bytes, want 64", n)
	}
}

// TestGenerationWrap runs queries across the wrap of a searcher's 32-bit
// generation, which clears every label's stamp once. Before the jump each
// searcher stamps labels with generations 1 to 12 from other sources;
// after it, the generations restart at 1, and only the clear keeps those
// labels, their queue marks included, from reading as the new search's.
// ALT, plain A* and DistancesWithin must each match Dijkstra bit for bit
// on both sides of the wrap.
func TestGenerationWrap(t *testing.T) {
	g := genTestCity(t, 30, 16, 5).Graph
	alt, err := NewALT(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	as, ps, bs := alt.NewSearcher(), NewSearcher(g), NewSearcher(g)
	routers := []router{{"alt", as.ShortestPath}, {"astar", ps.ShortestPath}}
	oracle := NewSearcher(g)
	r := rand.New(rand.NewSource(21))
	const radius = 1500
	within := func(src NodeID, want []float64) {
		t.Helper()
		seen, last := 0, 0.0
		bs.DistancesWithin(src, radius, func(v NodeID, d float64) bool {
			if d != want[v] || d < last {
				t.Fatalf("DistancesWithin %d→%d: %v after %v, Dijkstra %v", src, v, d, last, want[v])
			}
			seen, last = seen+1, d
			return true
		})
		n := 0
		for _, d := range want {
			if d <= radius {
				n++
			}
		}
		if seen != n {
			t.Fatalf("DistancesWithin from %d settled %d nodes, Dijkstra %d within %v m", src, seen, n, radius)
		}
	}
	var want []float64
	for step := 0; step < 24; step++ {
		if step == 12 {
			for _, s := range []*Searcher{as.s, ps, bs} {
				s.gen = math.MaxUint32 - 5
			}
		}
		src, dst := NodeID(r.Intn(g.NumNodes())), NodeID(r.Intn(g.NumNodes()))
		want = oracle.DistancesToAll(src, want)
		for _, rt := range routers {
			checkExact(t, g, rt, src, dst, want[dst])
		}
		within(src, want)
	}
	for _, s := range []*Searcher{as.s, ps, bs} {
		if s.gen == 0 || s.gen > 12 {
			t.Fatalf("generation %d: the searches did not cross the wrap", s.gen)
		}
	}
}

// TestWarmQueryAllocatesOnlyItsPath pins the A* loop's allocation
// contract: once a searcher has answered a set of queries, answering them
// again allocates one object a query, the returned path. Short legs and
// full trips of the 80x44 city, and every reachable pair of the comb,
// whose keys overflow the ring, for ALT and plain A*.
func TestWarmQueryAllocatesOnlyItsPath(t *testing.T) {
	city := genTestCity(t, 80, 44, 42).Graph
	comb := combGraph(t, rand.New(rand.NewSource(8)), 40)
	var combPairs [][2]NodeID
	oracle := NewSearcher(comb)
	var want []float64
	for src := 0; src < comb.NumNodes(); src++ {
		want = oracle.DistancesToAll(NodeID(src), want)
		for dst, d := range want {
			if !math.IsInf(d, 1) {
				combPairs = append(combPairs, [2]NodeID{NodeID(src), NodeID(dst)})
			}
		}
	}
	for _, c := range []struct {
		name  string
		g     *Graph
		pairs [][2]NodeID
	}{
		{"short80x44", city, legPairs(city, rand.New(rand.NewSource(2)), 200, 300, 2500)},
		{"trips80x44", city, legPairs(city, rand.New(rand.NewSource(3)), 200, 0, math.Inf(1))},
		{"comb", comb, combPairs},
	} {
		alt, err := NewALT(c.g, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range []router{{"alt", alt.NewSearcher().ShortestPath}, {"astar", NewSearcher(c.g).ShortestPath}} {
			for _, p := range c.pairs {
				rt.sp(p[0], p[1])
			}
			i := 0
			allocs := testing.AllocsPerRun(len(c.pairs), func() {
				p := c.pairs[i%len(c.pairs)]
				rt.sp(p[0], p[1])
				i++
			})
			if allocs != 1 {
				t.Errorf("%s/%s: %v allocations a warm query, want 1", c.name, rt.name, allocs)
			}
		}
	}
}

// altHeuristic is the ALT bound the A* loop takes for v toward t, in
// metres.
func altHeuristic(a *ALT, v, t NodeID) float64 {
	rt := a.tab[t].shaved()
	return float64(rt.bound(&a.tab[v])) / quantaPerMetre
}

// chordHeuristic is the chord bound the A* loop takes, in metres.
func chordHeuristic(g *Graph) func(v, t NodeID) float64 {
	return func(v, t NodeID) float64 { return float64(chordQuanta(g, v, t)) / quantaPerMetre }
}

// TestHeuristicsConsistent checks both heuristics, as the A* loop takes
// them, on every edge: h(u) ≤ Length(u,v) + h(v) + one quantum, and
// h(t) == 0. The loop's exactness rests on admissibility alone
// (TestALTBoundAdmissible); consistency is what keeps it from expanding a
// node twice, and rounding to quanta keeps it only to within one quantum:
// both bounds are rounded down, each by less than a quantum, so a node's
// bound can exceed an edge plus its neighbour's by up to that much, and
// the loop corrects such a label inside its bucket.
func TestHeuristicsConsistent(t *testing.T) {
	graphs := map[string]*Graph{
		"city":    genTestCity(t, 30, 16, 5).Graph,
		"scatter": scatterGraph(t, rand.New(rand.NewSource(3)), 400),
	}
	const tol = 1.0 / quantaPerMetre
	for name, g := range graphs {
		alt, err := NewALT(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		heuristics := map[string]func(v, t NodeID) float64{
			"chord": chordHeuristic(g),
			"alt":   func(v, t NodeID) float64 { return altHeuristic(alt, v, t) },
		}
		r := rand.New(rand.NewSource(9))
		for trial := 0; trial < 25; trial++ {
			tgt := NodeID(r.Intn(g.NumNodes()))
			for hname, h := range heuristics {
				if h0 := h(tgt, tgt); h0 != 0 {
					t.Fatalf("%s/%s: h(t,t) = %v for t=%d", name, hname, h0, tgt)
				}
				for u := 0; u < g.NumNodes(); u++ {
					hu := h(NodeID(u), tgt)
					for e, hi := g.Out(NodeID(u)); e < hi; e++ {
						a := g.Arc(e)
						if hv := h(a.To, tgt); hu > a.Length+hv+tol {
							t.Fatalf("%s/%s: edge %d→%d (%.6f m) toward %d: h(u)=%v > len+h(v)+quantum=%v",
								name, hname, u, a.To, a.Length, tgt, hu, a.Length+hv+tol)
						}
					}
				}
			}
		}
	}
}

// TestAStarEvaluatesHeuristicOncePerNode is the loop's work counter: a
// search evaluates h exactly once for every node it labels, however
// often the node is relabelled or expanded.
func TestAStarEvaluatesHeuristicOncePerNode(t *testing.T) {
	g := genTestCity(t, 30, 16, 5).Graph
	alt, err := NewALT(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(g)
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		src, tgt := NodeID(r.Intn(g.NumNodes())), NodeID(r.Intn(g.NumNodes()))
		if src == tgt {
			continue
		}
		rt := alt.tab[tgt].shaved()
		heuristics := map[string]func(v NodeID) int32{
			"chord": func(v NodeID) int32 { return chordQuanta(g, v, tgt) },
			"alt":   func(v NodeID) int32 { return rt.bound(&alt.tab[v]) },
		}
		for hname, h := range heuristics {
			evals := make([]int, g.NumNodes())
			total := 0
			res := s.astar(src, tgt, nil, func(v NodeID) int32 {
				evals[v]++
				total++
				return h(v)
			})
			if !res.Reachable() {
				t.Fatalf("%s: %d→%d unreachable in a connected city", hname, src, tgt)
			}
			for v, n := range evals {
				if n > 1 {
					t.Fatalf("%s: %d→%d evaluated h(%d) %d times", hname, src, tgt, v, n)
				}
			}
			if labelled := s.LabelledNodes(); total != labelled {
				t.Fatalf("%s: %d→%d: %d evaluations for %d labelled nodes", hname, src, tgt, total, labelled)
			}
		}
	}
}

// TestAddEdgeRejectsLengthBelowChord pins the invariant behind every
// router's exactness: an explicit length may not undercut the straight
// line between the endpoints (beyond rounding), while the chord itself
// and a length the rounding tolerance covers are accepted.
func TestAddEdgeRejectsLengthBelowChord(t *testing.T) {
	g := &Builder{}
	p := geo.Point{Lat: 40.70, Lng: -74.00}
	a := g.AddNode(p)
	b := g.AddNode(geo.Destination(p, 45, 500))
	chord := g.g.chord(a, b)
	if hav := geo.Haversine(g.g.Point(a), g.g.Point(b)); chord > hav || hav-chord > 1e-6 {
		t.Fatalf("chord %v vs great-circle %v: expected a hair shorter", chord, hav)
	}
	for _, bad := range []float64{chord * 0.5, chord - 1e-3, chord * (1 - 1e-6), math.NaN()} {
		if err := g.AddEdge(a, b, bad, 10, ClassStreet); err == nil {
			t.Fatalf("length %v under the %v m chord must be rejected", bad, chord)
		}
	}
	for _, ok := range []float64{chord, chord * (1 - 1e-12), chord * 1.5} {
		if err := g.AddEdge(a, b, ok, 10, ClassStreet); err != nil {
			t.Fatalf("length %v for a %v m chord rejected: %v", ok, chord, err)
		}
	}
	if n := g.Build().NumEdges(); n != 3 {
		t.Fatalf("rejected edges were inserted: %d edges", n)
	}
}
