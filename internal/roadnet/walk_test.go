package roadnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"xar/internal/geo"
)

// parallelGrid is a 4×4 grid of two-way streets 100 m apart in which
// every street has a second, longer but faster carriageway beside it, so
// a hop's shortest edge is not its fastest, and a few have a third,
// longer and slower than both.
func parallelGrid(t *testing.T) *Graph {
	t.Helper()
	g := &Builder{}
	origin := geo.Point{Lat: 40.70, Lng: -74.00}
	const side = 4
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			g.AddNode(geo.Destination(geo.Destination(origin, 0, float64(r)*100), 90, float64(c)*100))
		}
	}
	add := func(a, b NodeID, k int) {
		for _, e := range []struct{ stretch, speed float64 }{{1, 8}, {1.4, 22}} {
			if err := g.AddBidirectional(a, b, 100*e.stretch+float64(k), e.speed, ClassStreet); err != nil {
				t.Fatal(err)
			}
		}
		if k%3 == 0 {
			if err := g.AddEdge(a, b, 180, 5, ClassLane); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := NodeID(r*side + c)
			if c+1 < side {
				add(v, v+1, int(v))
			}
			if r+1 < side {
				add(v, v+side, int(v)+7)
			}
		}
	}
	return g.Build()
}

// routeETAsFold is the ETA fold the walk replaced: start, then each step's
// fastest edge time added to the last ETA.
func routeETAsFold(t *testing.T, g *Graph, route []NodeID, start float64) []float64 {
	t.Helper()
	etas := make([]float64, len(route))
	etas[0] = start
	for i := 1; i < len(route); i++ {
		step := math.Inf(1)
		lo, hi := g.Out(route[i-1])
		for e := lo; e < hi; e++ {
			if a := g.Arc(e); a.To == route[i] {
				step = min(step, a.Length/a.Speed)
			}
		}
		if math.IsInf(step, 1) {
			t.Fatalf("oracle: step %d→%d is not an edge", route[i-1], route[i])
		}
		etas[i] = etas[i-1] + step
	}
	return etas
}

// randomWalk is a path of up to hops hops from v, each along a random
// out-edge.
func randomWalk(rng *rand.Rand, g *Graph, v NodeID, hops int) []NodeID {
	p := []NodeID{v}
	for range hops {
		lo, hi := g.Out(v)
		v = g.Arc(lo + rng.Int31n(hi-lo)).To
		p = append(p, v)
	}
	return p
}

// join concatenates paths that each start where the last one ended.
func join(paths ...[]NodeID) []NodeID {
	out := slices.Clone(paths[0])
	for _, p := range paths[1:] {
		out = append(out, p[1:]...)
	}
	return out
}

// bitsEqual reports two float64 slices equal bit for bit.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestWalkRouteEqualsPathLengthAndETAFold: on a graph whose hops' shortest
// edges are not their fastest, WalkRoute's length is PathLength's, its
// old length PathLength's of the old route and its ETAs the old per-step
// fold, all bit for bit — on random paths and on the splices a booking
// makes: a pickup on the old segment, pickup and drop-off in one segment
// (sSeg == dSeg) and in two (sSeg < dSeg), a leg of zero hops, and a
// stretch replaced by nothing.
func TestWalkRouteEqualsPathLengthAndETAFold(t *testing.T) {
	g := parallelGrid(t)
	s := NewSearcher(g)
	rng := rand.New(rand.NewSource(3))
	sp := func(a, b NodeID) []NodeID {
		if a == b {
			return []NodeID{a}
		}
		return s.ShortestPath(a, b).Path
	}
	check := func(what string, route []NodeID, splice Splice) {
		t.Helper()
		start := float64(rng.Intn(86400)) + rng.Float64()
		w, err := g.WalkRoute(route, start, splice)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		wantLen, err := g.PathLength(route)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(w.Len) != math.Float64bits(wantLen) {
			t.Fatalf("%s: length %v, PathLength %v", what, w.Len, wantLen)
		}
		wantOld := 0.0
		if splice.Old != nil {
			if wantOld, err = g.PathLength(splice.Old); err != nil {
				t.Fatal(err)
			}
		}
		if math.Float64bits(w.OldLen) != math.Float64bits(wantOld) {
			t.Fatalf("%s: old length %v, PathLength %v", what, w.OldLen, wantOld)
		}
		if want := routeETAsFold(t, g, route, start); !bitsEqual(w.ETA, want) {
			t.Fatalf("%s: ETAs %v, fold %v", what, w.ETA, want)
		}
	}
	// spliced builds the new route that replaces old[part:rejoin+1] with
	// stretch (which runs from old[part] to old[rejoin]) and checks it.
	spliced := func(what string, old []NodeID, part, rejoin int, stretch []NodeID) {
		t.Helper()
		route := join(old[:part+1], stretch, old[rejoin:])
		check(what, route, Splice{Old: old, Part: part, OldRejoin: rejoin, NewRejoin: part + len(stretch) - 1})
	}

	differ := 0 // hops walked whose shortest edge is not their fastest
	for trial := 0; trial < 300; trial++ {
		old := randomWalk(rng, g, NodeID(rng.Intn(g.NumNodes())), 2+rng.Intn(30))
		check("random path", old, Splice{})
		for i := 1; i < len(old); i++ {
			var short, fast Edge
			short.Length, fast.Length, fast.Speed = math.Inf(1), math.Inf(1), 1
			for e, hi := g.Out(old[i-1]); e < hi; e++ {
				if e := g.Arc(e); e.To == old[i] {
					if e.Length < short.Length {
						short = e
					}
					if e.Length/e.Speed < fast.Length/fast.Speed {
						fast = e
					}
				}
			}
			if short != fast {
				differ++
			}
		}

		part := rng.Intn(len(old) - 1)
		rejoin := part + 1 + rng.Intn(len(old)-1-part)
		a, b := old[part], old[rejoin]
		pu, do := NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))

		// A pickup on the old segment: the stretch keeps the old route up
		// to it, then detours to the drop-off and back.
		on := part + rng.Intn(rejoin-part+1)
		spliced("pickup on the old segment", old, part, rejoin, join(old[part:on+1], sp(old[on], do), sp(do, b)))
		// sSeg == dSeg: a → pickup → drop-off → b.
		spliced("sSeg == dSeg", old, part, rejoin, join(sp(a, pu), sp(pu, do), sp(do, b)))
		// sSeg < dSeg: the old via-to-via stretch between them stays.
		m1 := part + rng.Intn(rejoin-part+1)
		m2 := m1 + rng.Intn(rejoin-m1+1)
		spliced("sSeg < dSeg", old, part, rejoin, join(sp(a, pu), sp(pu, old[m1]), old[m1:m2+1], sp(old[m2], do), sp(do, b)))
		// A zero-hop leg: the pickup is the via-point's own node.
		spliced("zero-hop leg", old, part, rejoin, join(sp(a, a), sp(a, do), sp(do, b)))
	}
	if differ == 0 {
		t.Fatal("no hop had a shortest edge that is not its fastest")
	}
	// The whole tail replaced by nothing: the walk parts at the new route's
	// last node, which is where the old one ends.
	loop := join(sp(0, 5), sp(5, 0))
	check("stretch replaced by nothing", []NodeID{0}, Splice{Old: loop, Part: 0, OldRejoin: len(loop) - 1, NewRejoin: 0})
}

// TestWalkRouteRefusesNonEdges: a step that is not an edge is an error
// wherever it lies — in the shared prefix or suffix, in the new stretch or
// in the old one — and so is a splice whose prefix or suffix the two
// routes do not share, or whose indices fall outside them.
func TestWalkRouteRefusesNonEdges(t *testing.T) {
	g := parallelGrid(t)
	// Node r*4+c is row r, column c. The old route runs along row 0, back
	// one block, down column 2 and along row 3; the new one goes from 3
	// straight down column 3 to 15 instead. 0 and 15 are opposite
	// corners: no edge joins them.
	jump := []NodeID{0, 15}
	old := []NodeID{0, 1, 2, 3, 2, 6, 10, 14, 15, 14, 13, 12}
	i3, i15 := 3, 8
	stretch := []NodeID{3, 7, 11, 15}
	route := join(old[:i3+1], stretch, old[i15:])
	good := Splice{Old: old, Part: i3, OldRejoin: i15, NewRejoin: i3 + len(stretch) - 1}
	if _, err := g.WalkRoute(route, 0, good); err != nil {
		t.Fatalf("a good splice was refused: %v", err)
	}
	cases := []struct {
		what  string
		route []NodeID
		sp    Splice
	}{
		{"new route alone", append(slices.Clone(route), 0), Splice{}},
		{"empty route", nil, Splice{}},
		{"jump in the new stretch", join(old[:i3+1], []NodeID{3, 15}, old[i15:]), Splice{Old: old, Part: i3, OldRejoin: i15, NewRejoin: i3 + 1}},
		{"jump in the old stretch", route, Splice{Old: join(old[:i3+1], []NodeID{3, 15}, old[i15:]), Part: i3, OldRejoin: i3 + 1, NewRejoin: good.NewRejoin}},
		{"jump in the shared prefix", join(jump, []NodeID{15, 14, 13, 12}), Splice{Old: join(jump, []NodeID{15, 14, 13, 12}), Part: 1, OldRejoin: 4, NewRejoin: 4}},
		{"prefix not shared", route, Splice{Old: old, Part: i3 + 1, OldRejoin: i15, NewRejoin: good.NewRejoin}},
		{"suffix not shared", route, Splice{Old: old, Part: i3, OldRejoin: i15 - 1, NewRejoin: good.NewRejoin}},
		{"rejoin past the end", route, Splice{Old: old, Part: i3, OldRejoin: len(old), NewRejoin: good.NewRejoin}},
		{"rejoin before the part", route, Splice{Old: old, Part: i3, OldRejoin: i15, NewRejoin: i3 - 1}},
	}
	for _, c := range cases {
		if w, err := g.WalkRoute(c.route, 0, c.sp); err == nil {
			t.Errorf("%s: walked, length %v, old length %v", c.what, w.Len, w.OldLen)
		}
	}
}
