package roadnet

import (
	"fmt"

	"xar/internal/geo"
	"xar/internal/memsize"
)

// ALT implements the A*-with-Landmarks-and-Triangle-inequality speedup
// (Goldberg & Harrelson) for single-pair shortest paths. A handful of
// well-spread seed nodes ("ALT landmarks" — distinct from the XAR
// discretization's landmarks, though the idea is the same family) get
// full forward and backward distance arrays; the triangle inequality
// then yields an admissible, usually much tighter heuristic than the
// straight-line distance:
//
//	h(v) = max_L max( d(L,t) − d(L,v),  d(v,L) − d(t,L) )
//
// XAR computes shortest paths only at ride creation and booking, but
// those are where its time goes, and ALT is the engine's default router.
// It touches several times fewer nodes than the straight-line heuristic
// but pays 2·k loads for each, and 2·k Dijkstras of preprocessing: a
// query costs a third (880 nodes) to a half (3 520) less than plain
// A*'s, not a multiple (the repository benchmark's traced pass times
// the routers on each workload's own legs, roadnet.query_us.*;
// BENCH_routing.json has the engine view).
type ALT struct {
	g    *Graph
	seed []NodeID
	// tab is node-major, so one heuristic evaluation reads two contiguous
	// rows: tab[2k·v + 2i] = d(seed_i → v), tab[2k·v + 2i+1] = d(v → seed_i).
	tab []float64
}

// row returns node v's 2·k distances.
func (a *ALT) row(v NodeID) []float64 {
	w := 2 * len(a.seed)
	return a.tab[int(v)*w : (int(v)+1)*w]
}

// MeasureMem implements memsize.Measurer. ALT tables are immutable after
// NewALT, so the walk takes no locks; the dominant cost, the 2·k dense
// distance table, is counted from its slice header via the walker's
// leaf-type fast path.
func (al *ALT) MeasureMem(a *memsize.Accumulator) {
	if al == nil {
		return
	}
	a.Add(al)
}

// NewALT selects k seed nodes (farthest-point spread over the graph's
// geometry, deterministic) and precomputes their distance arrays.
func NewALT(g *Graph, k int) (*ALT, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("roadnet: ALT over an empty graph")
	}
	if k <= 0 {
		k = 8
	}
	if k > g.NumNodes() {
		k = g.NumNodes()
	}
	a := &ALT{g: g}

	// Farthest-point seeding on straight-line distance: cheap and spreads
	// the seeds to the periphery, where ALT landmarks work best.
	a.seed = append(a.seed, 0)
	minD := make([]float64, g.NumNodes())
	for i := range minD {
		minD[i] = geo.Haversine(g.Point(0), g.Point(NodeID(i)))
	}
	for len(a.seed) < k {
		far, farD := NodeID(0), -1.0
		for v := 0; v < g.NumNodes(); v++ {
			if minD[v] > farD {
				farD = minD[v]
				far = NodeID(v)
			}
		}
		a.seed = append(a.seed, far)
		for v := 0; v < g.NumNodes(); v++ {
			if d := geo.Haversine(g.Point(far), g.Point(NodeID(v))); d < minD[v] {
				minD[v] = d
			}
		}
	}

	// Two sweeps of the one-to-all kernel per seed, each copied out of one
	// reused distance array into the seed's column of the node-major table
	// (+Inf where a node and the seed cannot reach each other).
	w := 2 * k
	a.tab = make([]float64, g.NumNodes()*w)
	s := NewSearcher(g)
	var dist []float64
	for i, l := range a.seed {
		dist = s.DistancesToAll(l, dist)
		for v, d := range dist {
			a.tab[v*w+2*i] = d
		}
		dist = s.DistancesToAllReverse(l, dist)
		for v, d := range dist {
			a.tab[v*w+2*i+1] = d
		}
	}
	return a, nil
}

// NumSeeds returns the number of ALT landmarks.
func (a *ALT) NumSeeds() int { return len(a.seed) }

// heuristic returns the ALT lower bound on d(v → t).
func (a *ALT) heuristic(v, t NodeID) float64 { return altBound(a.row(v), a.row(t)) }

// altBound is the ALT lower bound on d(v → t) from the two nodes' table
// rows. An unreachable (+Inf) table entry needs no guard: Inf−Inf is NaN
// and −Inf never exceeds h, so both drop out of the max, and a +Inf
// difference arises only where v really cannot reach t.
func altBound(rv, rt []float64) float64 {
	var h float64
	for ; len(rv) >= 2 && len(rt) >= 2; rv, rt = rv[2:], rt[2:] {
		// d(L→t) − d(L→v) ≤ d(v→t)  and  d(v→L) − d(t→L) ≤ d(v→t).
		if c := rt[0] - rv[0]; c > h {
			h = c
		}
		if c := rv[1] - rt[1]; c > h {
			h = c
		}
	}
	return h
}

// ALTSearcher carries the per-query state for ALT searches; one per
// goroutine, like Searcher.
type ALTSearcher struct {
	alt *ALT
	s   *Searcher
}

// NewSearcher creates a query context bound to the ALT tables.
func (a *ALT) NewSearcher() *ALTSearcher {
	return &ALTSearcher{alt: a, s: NewSearcher(a.g)}
}

// ShortestPath runs the Searcher's A* loop with the ALT heuristic.
// Results are identical to Searcher.ShortestPath; only the visited-node
// count differs.
func (as *ALTSearcher) ShortestPath(source, target NodeID) SPResult {
	a := as.alt
	rt := a.row(target) // the same row for every node the search touches
	return as.s.astar(source, target, func(v NodeID) float64 { return altBound(a.row(v), rt) })
}

// SettledNodes reports how many nodes the last search settled — the
// quantity ALT improves. Exposed for benchmarks and tests.
func (as *ALTSearcher) SettledNodes() int { return as.s.SettledNodes() }
