package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"xar/internal/geo"
)

// buildTriangle makes a 3-node graph: 0→1 (100m), 1→2 (100m), 0→2 (250m).
// The shortest 0→2 path goes through 1.
func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := &Graph{}
	p0 := geo.Point{Lat: 40.70, Lng: -74.00}
	n0 := g.AddNode(p0)
	n1 := g.AddNode(geo.Destination(p0, 90, 100))
	n2 := g.AddNode(geo.Destination(p0, 90, 200))
	if err := g.AddEdge(n0, n1, 100, 10, ClassStreet); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(n1, n2, 100, 10, ClassStreet); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(n0, n2, 250, 10, ClassStreet); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(geo.Point{Lat: 40.7, Lng: -74})
	b := g.AddNode(geo.Point{Lat: 40.71, Lng: -74})
	if err := g.AddEdge(a, b, 100, 0, ClassStreet); err == nil {
		t.Fatal("zero speed must be rejected")
	}
	if err := g.AddEdge(a, a, 100, 10, ClassStreet); err == nil {
		t.Fatal("self-loop must be rejected")
	}
	if err := g.AddEdge(a, 99, 100, 10, ClassStreet); err == nil {
		t.Fatal("out-of-range endpoint must be rejected")
	}
	if err := g.AddEdge(-1, b, 100, 10, ClassStreet); err == nil {
		t.Fatal("negative endpoint must be rejected")
	}
}

func TestAddEdgeDefaultsLengthToHaversine(t *testing.T) {
	g := &Graph{}
	p := geo.Point{Lat: 40.7, Lng: -74}
	a := g.AddNode(p)
	b := g.AddNode(geo.Destination(p, 90, 500))
	if err := g.AddEdge(a, b, 0, 10, ClassStreet); err != nil {
		t.Fatal(err)
	}
	if l := g.Out(a)[0].Length; math.Abs(l-500) > 1 {
		t.Fatalf("defaulted edge length = %.2f, want ~500", l)
	}
}

func TestReverseAdjacency(t *testing.T) {
	g := buildTriangle(t)
	in2 := g.In(2)
	if len(in2) != 2 {
		t.Fatalf("node 2 has %d incoming edges, want 2", len(in2))
	}
	sources := map[NodeID]bool{}
	for _, e := range in2 {
		sources[e.To] = true
	}
	if !sources[0] || !sources[1] {
		t.Fatalf("incoming sources of node 2 = %v, want {0,1}", sources)
	}
}

func TestShortestPathTriangle(t *testing.T) {
	g := buildTriangle(t)
	s := NewSearcher(g)
	res := s.ShortestPath(0, 2)
	if !res.Reachable() {
		t.Fatal("0→2 must be reachable")
	}
	if math.Abs(res.Dist-200) > 1e-9 {
		t.Fatalf("dist = %v, want 200 (through node 1)", res.Dist)
	}
	want := []NodeID{0, 1, 2}
	if len(res.Path) != 3 {
		t.Fatalf("path = %v, want %v", res.Path, want)
	}
	for i := range want {
		if res.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v", res.Path, want)
		}
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := buildTriangle(t)
	s := NewSearcher(g)
	res := s.ShortestPath(1, 1)
	if res.Dist != 0 || len(res.Path) != 1 || res.Path[0] != 1 {
		t.Fatalf("self path = %+v", res)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := buildTriangle(t)
	s := NewSearcher(g)
	// Edges all point forward; 2→0 has no route.
	res := s.ShortestPath(2, 0)
	if res.Reachable() {
		t.Fatalf("2→0 should be unreachable, got %+v", res)
	}
}

// floydWarshall is an O(n^3) reference implementation used to validate
// Dijkstra/A* on random graphs.
func floydWarshall(g *Graph) [][]float64 {
	n := g.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(NodeID(v)) {
			if e.Length < d[v][e.To] {
				d[v][e.To] = e.Length
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if math.IsInf(d[i][k], 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func randomGraph(r *rand.Rand, n int, edgeProb float64) *Graph {
	g := &Graph{}
	origin := geo.Point{Lat: 40.7, Lng: -74.0}
	for i := 0; i < n; i++ {
		p := geo.Destination(origin, 0, r.Float64()*5000)
		p = geo.Destination(p, 90, r.Float64()*5000)
		g.AddNode(p)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || r.Float64() > edgeProb {
				continue
			}
			base := geo.Haversine(g.Point(NodeID(i)), g.Point(NodeID(j)))
			// Edge length ≥ straight line keeps the A* heuristic admissible.
			length := base * (1 + r.Float64())
			if length <= 0 {
				length = 1
			}
			_ = g.AddEdge(NodeID(i), NodeID(j), length, 10, ClassStreet)
		}
	}
	return g
}

func TestAStarMatchesFloydWarshall(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(r, 25, 0.15)
		ref := floydWarshall(g)
		s := NewSearcher(g)
		for i := 0; i < g.NumNodes(); i++ {
			for j := 0; j < g.NumNodes(); j++ {
				res := s.ShortestPath(NodeID(i), NodeID(j))
				if math.IsInf(ref[i][j], 1) != !res.Reachable() {
					t.Fatalf("trial %d: reachability mismatch %d→%d (ref %v, got %v)",
						trial, i, j, ref[i][j], res.Dist)
				}
				if res.Reachable() && math.Abs(res.Dist-ref[i][j]) > 1e-6 {
					t.Fatalf("trial %d: dist %d→%d = %v, want %v", trial, i, j, res.Dist, ref[i][j])
				}
				// Path length must equal reported distance.
				if res.Reachable() {
					pl, err := g.PathLength(res.Path)
					if err != nil {
						t.Fatalf("trial %d: invalid path: %v", trial, err)
					}
					if math.Abs(pl-res.Dist) > 1e-6 {
						t.Fatalf("trial %d: path length %v != dist %v", trial, pl, res.Dist)
					}
				}
			}
		}
	}
}

func TestBoundedDijkstraAgainstFullSearch(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 40, 0.12)
	ref := floydWarshall(g)
	s := NewSearcher(g)
	const radius = 4000.0
	for src := 0; src < g.NumNodes(); src++ {
		got := map[NodeID]float64{}
		s.DistancesWithin(NodeID(src), radius, func(v NodeID, d float64) bool {
			got[v] = d
			return true
		})
		for j := 0; j < g.NumNodes(); j++ {
			want, ok := ref[src][j], ref[src][j] <= radius
			d, found := got[NodeID(j)]
			if ok != found {
				t.Fatalf("src %d node %d: bounded search found=%v want=%v (d=%v)", src, j, found, ok, want)
			}
			if found && math.Abs(d-want) > 1e-6 {
				t.Fatalf("src %d node %d: dist %v want %v", src, j, d, want)
			}
		}
	}
}

func TestReverseBoundedSearch(t *testing.T) {
	g := buildTriangle(t)
	s := NewSearcher(g)
	// Nodes that can reach node 2 within 150m: node 2 itself (0) and
	// node 1 (100). Node 0 is 200 away (via 1).
	got := map[NodeID]float64{}
	s.DistancesWithinReverse(2, 150, func(v NodeID, d float64) bool {
		got[v] = d
		return true
	})
	if len(got) != 2 || got[2] != 0 || got[1] != 100 {
		t.Fatalf("reverse bounded search = %v", got)
	}
}

func TestDistancesToAll(t *testing.T) {
	g := buildTriangle(t)
	s := NewSearcher(g)
	d := s.DistancesToAll(0, nil)
	if d[0] != 0 || d[1] != 100 || d[2] != 200 {
		t.Fatalf("distances = %v", d)
	}
	dRev := s.DistancesToAll(2, nil)
	if !math.IsInf(dRev[0], 1) {
		t.Fatalf("node 0 should be unreachable from 2, got %v", dRev[0])
	}
}

func TestVisitEarlyStop(t *testing.T) {
	g := buildTriangle(t)
	s := NewSearcher(g)
	count := 0
	s.DistancesWithin(0, 1e9, func(NodeID, float64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("visit called %d times after early stop, want 2", count)
	}
}

// swapPQ is the textbook binary heap — sift by swapping — that pq is
// measured against: pq moves a hole instead, and must pop the same items
// in the same order, ties included, or equal-length routes would change.
type swapPQ []pqItem

func (q *swapPQ) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].prio <= h[i].prio {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (q *swapPQ) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	for i := 0; ; {
		l, r, small := 2*i+1, 2*i+2, i
		if l < n && h[l].prio < h[small].prio {
			small = l
		}
		if r < n && h[r].prio < h[small].prio {
			small = r
		}
		if small == i {
			return top
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// TestPQPopOrder drains pq after random interleavings of push and pop,
// on distinct keys and on a handful of heavily duplicated ones: the keys
// come out sorted, and item for item as the swapping heap pops them.
func TestPQPopOrder(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		distinct := 1 + r.Intn(1000)
		if trial%2 == 0 {
			distinct = 1 + r.Intn(4) // duplicates
		}
		var q pq
		var ref swapPQ
		var pushed, popped []float64
		check := func() {
			got, want := q.pop(), ref.pop()
			if got != want {
				t.Fatalf("trial %d: popped %+v, the swapping heap %+v", trial, got, want)
			}
			popped = append(popped, got.prio)
		}
		for i, n := 0, r.Intn(300); i < n; i++ {
			it := pqItem{node: NodeID(i), prio: float64(r.Intn(distinct))}
			q.push(it)
			ref.push(it)
			pushed = append(pushed, it.prio)
			if r.Intn(4) == 0 {
				check()
				// The final drain is compared with a sort of what is
				// still queued now plus what is pushed from here on.
				pushed, popped = pushed[:0], popped[:0]
				for _, it := range q {
					pushed = append(pushed, it.prio)
				}
			}
		}
		for q.Len() > 0 {
			check()
		}
		sort.Float64s(pushed)
		if len(ref) != 0 || !slices.Equal(popped, pushed) {
			t.Fatalf("trial %d: drained %v, sorted %v", trial, popped, pushed)
		}
	}
}

func TestSearcherReuse(t *testing.T) {
	g := buildTriangle(t)
	s := NewSearcher(g)
	for i := 0; i < 100; i++ {
		if d := s.ShortestPath(0, 2).Dist; math.Abs(d-200) > 1e-9 {
			t.Fatalf("iteration %d: dist = %v", i, d)
		}
		if d := s.ShortestPath(0, 1).Dist; math.Abs(d-100) > 1e-9 {
			t.Fatalf("iteration %d: dist = %v", i, d)
		}
	}
}

func TestTravelTime(t *testing.T) {
	g := buildTriangle(t)
	tt, err := g.TravelTime([]NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tt-20) > 1e-9 { // 200m at 10 m/s
		t.Fatalf("travel time = %v, want 20", tt)
	}
	if _, err := g.TravelTime([]NodeID{2, 0}); err == nil {
		t.Fatal("non-adjacent path must error")
	}
}

func TestPathLengthErrors(t *testing.T) {
	g := buildTriangle(t)
	if _, err := g.PathLength([]NodeID{2, 1}); err == nil {
		t.Fatal("reverse of a one-way edge must error")
	}
	if l, err := g.PathLength(nil); err != nil || l != 0 {
		t.Fatalf("empty path: %v, %v", l, err)
	}
}

func TestLargestComponent(t *testing.T) {
	g := &Graph{}
	p := geo.Point{Lat: 40.7, Lng: -74}
	// Component A: 3 nodes; component B: 2 nodes.
	a0 := g.AddNode(p)
	a1 := g.AddNode(geo.Destination(p, 90, 100))
	a2 := g.AddNode(geo.Destination(p, 90, 200))
	b0 := g.AddNode(geo.Destination(p, 0, 5000))
	b1 := g.AddNode(geo.Destination(p, 0, 5100))
	_ = g.AddBidirectional(a0, a1, 0, 10, ClassStreet)
	_ = g.AddBidirectional(a1, a2, 0, 10, ClassStreet)
	_ = g.AddBidirectional(b0, b1, 0, 10, ClassStreet)

	comp := g.LargestComponent()
	if len(comp) != 3 {
		t.Fatalf("largest component has %d nodes, want 3", len(comp))
	}
	sub, remap := g.InducedSubgraph(comp)
	if sub.NumNodes() != 3 || sub.NumEdges() != 4 {
		t.Fatalf("subgraph: %d nodes %d edges, want 3/4", sub.NumNodes(), sub.NumEdges())
	}
	if remap[b0] != InvalidNode || remap[b1] != InvalidNode {
		t.Fatal("dropped nodes must remap to InvalidNode")
	}
}

func TestRoadClassString(t *testing.T) {
	for _, c := range []RoadClass{ClassHighway, ClassAvenue, ClassStreet, ClassLane} {
		if c.String() == "" {
			t.Fatalf("empty string for class %d", c)
		}
	}
	if RoadClass(99).String() != "roadclass(99)" {
		t.Fatal("unknown class string")
	}
}
