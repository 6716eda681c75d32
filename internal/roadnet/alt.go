package roadnet

import (
	"fmt"
	"math"

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
// The loop is memory-bound, not count-bound (about 50 pops and 70
// labelled nodes a replay query), so the table is laid out for one cache
// line a node: each node's row is 2·k int32 distances in quanta (1/16 m),
// 64 bytes at the default k = 8, and the bound is a max of integer
// differences. Rounding makes it exact rather than approximately
// admissible: d(L→v) is stored rounded up and d(v→L) rounded down, and
// each query shaves the target's row by one more quantum (⌈·⌉−1 for the
// first term, ⌊·⌋+1 for the second), so each difference is strictly below
// the true one. A distance past 2^30 quanta (+Inf included) is stored as
// 2^30: a term it enters is then either negative or arises only where v
// cannot reach t at all. Preprocessing is 2·k one-to-all sweeps; the
// repository benchmark's traced pass times the routers on each workload's
// own legs (roadnet.query_us.*).
type ALT struct {
	g    *Graph
	seed []NodeID
	// tab is node-major, one row per node: tab[2k·v + 2i] = ⌈16·d(seed_i → v)⌉,
	// tab[2k·v + 2i+1] = ⌊16·d(v → seed_i)⌋, both capped at altUnreachable.
	tab []int32
	// adj is the flat forward adjacency every searcher of this ALT walks.
	adj *flatAdj
}

// altUnreachable caps a table entry; +Inf is stored as it.
const altUnreachable = 1 << 30

// quantaUp returns ⌈16·d⌉, capped at altUnreachable.
func quantaUp(d float64) int32 {
	if x := math.Ceil(d * quantaPerMetre); x < altUnreachable {
		return int32(x)
	}
	return altUnreachable
}

// quantaDown returns ⌊16·d⌋, capped at altUnreachable.
func quantaDown(d float64) int32 {
	if x := math.Floor(d * quantaPerMetre); x < altUnreachable {
		return int32(x)
	}
	return altUnreachable
}

// row returns node v's 2·k table entries.
func (a *ALT) row(v NodeID) []int32 {
	w := 2 * len(a.seed)
	return a.tab[int(v)*w : (int(v)+1)*w]
}

// MeasureMem implements memsize.Measurer. ALT tables are immutable after
// NewALT, so the walk takes no locks; the dominant costs, the 2·k dense
// table and the flat adjacency, are counted from their slice headers via
// the walker's leaf-type fast path.
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

	// Two sweeps of the one-to-all kernel per seed, each rounded out of one
	// reused distance array into the seed's column of the node-major table.
	// The forward sweeps' flat adjacency stays as the searchers'.
	w := 2 * k
	a.tab = make([]int32, g.NumNodes()*w)
	s := NewSearcher(g)
	var dist []float64
	for i, l := range a.seed {
		dist = s.DistancesToAll(l, dist)
		for v, d := range dist {
			a.tab[v*w+2*i] = quantaUp(d)
		}
		dist = s.DistancesToAllReverse(l, dist)
		for v, d := range dist {
			a.tab[v*w+2*i+1] = quantaDown(d)
		}
	}
	a.adj = s.forward()
	return a, nil
}

// NumSeeds returns the number of ALT landmarks.
func (a *ALT) NumSeeds() int { return len(a.seed) }

// shaveRow writes target t's row into rt, shaved by one quantum toward
// admissibility: ⌈·⌉−1 where t's entry is subtracted from, ⌊·⌋+1 where it
// is subtracted.
func (a *ALT) shaveRow(t NodeID, rt []int32) {
	for i, x := range a.row(t) {
		if i%2 == 0 {
			rt[i] = x - 1
		} else {
			rt[i] = x + 1
		}
	}
}

// altBound is the ALT lower bound on d(v → t) in quanta, from v's row and
// t's shaved one: branchless, and never above the driving distance.
func altBound(rv, rt []int32) int32 {
	rv = rv[:len(rt)]
	var h int32
	for i := 0; i+1 < len(rt); i += 2 {
		// d(L→t) − d(L→v) ≤ d(v→t)  and  d(v→L) − d(t→L) ≤ d(v→t).
		h = max(h, rt[i]-rv[i], rv[i+1]-rt[i+1])
	}
	return h
}

// ALTSearcher carries the per-query state for ALT searches; one per
// goroutine, like Searcher.
type ALTSearcher struct {
	alt *ALT
	s   *Searcher
	rt  []int32 // the current target's shaved row
}

// NewSearcher creates a query context bound to the ALT tables and their
// flat adjacency.
func (a *ALT) NewSearcher() *ALTSearcher {
	s := NewSearcher(a.g)
	s.sw.fwd = a.adj
	return &ALTSearcher{alt: a, s: s, rt: make([]int32, 2*len(a.seed))}
}

// ShortestPath runs the Searcher's A* loop with the ALT heuristic.
// Results are identical to Searcher.ShortestPath; only the labelled-node
// count differs.
func (as *ALTSearcher) ShortestPath(source, target NodeID) SPResult {
	rt, tab, w := as.rt, as.alt.tab, len(as.rt)
	as.alt.shaveRow(target, rt)
	return as.s.astar(source, target, func(v NodeID) int32 {
		i := int(v) * w
		return altBound(tab[i:i+w], rt)
	})
}

// LabelledNodes reports how many nodes the last search labelled — the
// quantity ALT reduces. Exposed for benchmarks and tests.
func (as *ALTSearcher) LabelledNodes() int { return as.s.LabelledNodes() }
