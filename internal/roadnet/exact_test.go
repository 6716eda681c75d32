package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"xar/internal/geo"
)

// scatterGraph is a random non-lattice graph: n nodes scattered over a
// 6 km square, each joined to a few random others by one-way edges whose
// explicit lengths lie between 1× and 2× the chord (every tenth exactly
// the chord, the tightest AddEdge accepts). Sparse enough that some
// pairs are unreachable.
func scatterGraph(t testing.TB, r *rand.Rand, n int) *Graph {
	t.Helper()
	g := &Graph{}
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
			length := g.chord(NodeID(i), NodeID(j))
			if (i+k)%10 != 0 {
				length *= 1 + r.Float64()
			}
			if err := g.AddEdge(NodeID(i), NodeID(j), length, 10, ClassStreet); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
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
			alt, err := NewALT(g, 8)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := BuildCH(g, CHConfig{})
			if err != nil {
				t.Fatal(err)
			}
			oracle := NewSearcher(g)
			routers := []struct {
				name string
				sp   func(a, b NodeID) SPResult
			}{
				{"astar", NewSearcher(g).ShortestPath},
				{"alt", alt.NewSearcher().ShortestPath},
				{"ch", ch.NewSearcher().ShortestPath},
			}
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
						got := rt.sp(src, dst)
						if got.Dist != want[dst] {
							t.Fatalf("%s %d→%d: dist %v, Dijkstra %v (diff %g)", rt.name, src, dst, got.Dist, want[dst], got.Dist-want[dst])
						}
						if !got.Reachable() {
							if got.Path != nil {
								t.Fatalf("%s %d→%d: unreachable pair returned a path", rt.name, src, dst)
							}
							continue
						}
						if got.Path[0] != src || got.Path[len(got.Path)-1] != dst {
							t.Fatalf("%s %d→%d: path runs %d…%d", rt.name, src, dst, got.Path[0], got.Path[len(got.Path)-1])
						}
						if pl, err := g.PathLength(got.Path); err != nil || pl != got.Dist {
							t.Fatalf("%s %d→%d: path length %v (err %v), dist %v", rt.name, src, dst, pl, err, got.Dist)
						}
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

// TestHeuristicsConsistent checks the property the A* loop rests on, for
// both heuristics, on every edge: h(u) ≤ Length(u,v) + h(v), and
// h(t) == 0.
func TestHeuristicsConsistent(t *testing.T) {
	graphs := map[string]*Graph{
		"city":    genTestCity(t, 30, 16, 5).Graph,
		"scatter": scatterGraph(t, rand.New(rand.NewSource(3)), 400),
	}
	for name, g := range graphs {
		alt, err := NewALT(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		heuristics := map[string]func(v, t NodeID) float64{
			"chord": g.chordBound,
			"alt":   alt.heuristic,
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
					for _, e := range g.Out(NodeID(u)) {
						// ALT differences of float path sums carry their
						// rounding (≲ 1e-11 m here); the chord bound is
						// shaved and needs no allowance.
						tol := 0.0
						if hname == "alt" {
							tol = 1e-9
						}
						if hv := h(e.To, tgt); hu > e.Length+hv+tol {
							t.Fatalf("%s/%s: edge %d→%d (%.6f m) toward %d: h(u)=%v > len+h(v)=%v",
								name, hname, u, e.To, e.Length, tgt, hu, e.Length+hv)
						}
					}
				}
			}
		}
	}
}

// TestAStarEvaluatesHeuristicOncePerNode is the loop's work counter: a
// search evaluates h exactly once for every node it touches, however
// often the node is re-relaxed or popped.
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
		for hname, h := range map[string]func(v, t NodeID) float64{"chord": g.chordBound, "alt": alt.heuristic} {
			evals := make([]int, g.NumNodes())
			total := 0
			res := s.astar(src, tgt, func(v NodeID) float64 {
				evals[v]++
				total++
				return h(v, tgt)
			})
			if !res.Reachable() {
				t.Fatalf("%s: %d→%d unreachable in a connected city", hname, src, tgt)
			}
			for v, n := range evals {
				if n > 1 {
					t.Fatalf("%s: %d→%d evaluated h(%d) %d times", hname, src, tgt, v, n)
				}
			}
			if touched := s.SettledNodes(); total != touched {
				t.Fatalf("%s: %d→%d: %d evaluations for %d touched nodes", hname, src, tgt, total, touched)
			}
		}
	}
}

// TestAddEdgeRejectsLengthBelowChord pins the invariant behind every
// router's exactness: an explicit length may not undercut the straight
// line between the endpoints (beyond rounding), while the chord itself
// and a length the rounding tolerance covers are accepted.
func TestAddEdgeRejectsLengthBelowChord(t *testing.T) {
	g := &Graph{}
	p := geo.Point{Lat: 40.70, Lng: -74.00}
	a := g.AddNode(p)
	b := g.AddNode(geo.Destination(p, 45, 500))
	chord := g.chord(a, b)
	if hav := geo.Haversine(g.Point(a), g.Point(b)); chord > hav || hav-chord > 1e-6 {
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
	if g.NumEdges() != 3 {
		t.Fatalf("rejected edges were inserted: %d edges", g.NumEdges())
	}
}
