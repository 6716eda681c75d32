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
// those are where its time goes, and ALT is the engine's router. It
// labels close to its floor, about three times a short leg's path nodes,
// so the table is laid out for the time per labelled node: a node's row
// is a fixed altRow of 2·8 int32 distances in quanta (1/16 m), one
// 64-byte cache line, and the bound is a max of integer differences.
// Rounding makes it exact rather than approximately admissible: d(L→v) is
// stored rounded up and d(v→L) rounded down, and each query shaves the
// target's row by one more quantum (⌈·⌉−1 for the first term, ⌊·⌋+1 for
// the second), so each difference is strictly below the true one. A
// distance past 2^30 quanta (+Inf included) is stored as 2^30: a term it
// enters is then either negative or arises only where v cannot reach t at
// all. Preprocessing is 16 one-to-all sweeps; the repository benchmark's
// traced pass times the routers on each workload's own legs
// (roadnet.query_us.*).
type ALT struct {
	g    *Graph
	seed []NodeID // distinct
	// tab is node-major: tab[v][2i] = ⌈16·d(seed_i → v)⌉ and
	// tab[v][2i+1] = ⌊16·d(v → seed_i)⌋, both capped at altUnreachable,
	// with the last seed standing in for seed_i past it.
	tab []altRow
	// adj is the flat forward adjacency every searcher of this ALT walks.
	adj *flatAdj
}

// altSeeds is the number of seeds a row holds.
const altSeeds = 8

// altRow is one node's ALT table entries: two a seed, 64 bytes.
type altRow [2 * altSeeds]int32

// shaved returns r, a target's row, shaved by one quantum toward
// admissibility: ⌈·⌉−1 where the target's entry is subtracted from, ⌊·⌋+1
// where it is subtracted.
func (r altRow) shaved() altRow {
	for i := 0; i < len(r); i += 2 {
		r[i]--
		r[i+1]++
	}
	return r
}

// bound is the ALT lower bound on d(v → t) in quanta, from v's row rv and
// t's shaved row rt: for each seed L, d(L→t) − d(L→v) ≤ d(v→t) and
// d(v→L) − d(t→L) ≤ d(v→t). Branchless, and small enough for the
// compiler to inline; two seeds a step run about a tenth faster than one.
func (rt *altRow) bound(rv *altRow) int32 {
	var h int32
	for i := 0; i < len(rt); i += 4 {
		h = max(h, rt[i]-rv[i], rv[i+1]-rt[i+1], rt[i+2]-rv[i+2], rv[i+3]-rt[i+3])
	}
	return h
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

// MeasureMem implements memsize.Measurer. ALT tables are immutable after
// NewALT, so the walk takes no locks; the dominant costs, the dense table
// and the flat adjacency, are counted from their slice headers via the
// walker's leaf-type fast path.
func (al *ALT) MeasureMem(a *memsize.Accumulator) {
	if al == nil {
		return
	}
	a.Add(al)
}

// NewALT selects k seed nodes (farthest-point spread over the graph's
// geometry, deterministic) and precomputes their distance arrays. k ≤ 0
// means 8, the number a row holds, and k > 8 is an error; a graph with
// fewer than k nodes gets one seed a node.
func NewALT(g *Graph, k int) (*ALT, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("roadnet: ALT over an empty graph")
	}
	if k > altSeeds {
		return nil, fmt.Errorf("roadnet: %d ALT seeds, a row holds %d", k, altSeeds)
	}
	if k <= 0 {
		k = altSeeds
	}
	a := &ALT{g: g}

	// Farthest-point seeding on straight-line distance: cheap and spreads
	// the seeds to the periphery, where ALT landmarks work best. A seed's
	// own distance is set below every other, so no node is picked twice.
	a.seed = append(a.seed, 0)
	minD := make([]float64, g.NumNodes())
	for i := range minD {
		minD[i] = geo.Haversine(g.Point(0), g.Point(NodeID(i)))
	}
	minD[0] = -1
	for len(a.seed) < min(k, g.NumNodes()) {
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
		minD[far] = -1
	}

	// Two sweeps of the one-to-all kernel per column pair, each rounded out
	// of one reused distance array into the node-major table; the pairs
	// past the last seed repeat its sweeps. The forward sweeps' flat
	// adjacency stays as the searchers'.
	a.tab = make([]altRow, g.NumNodes())
	s := NewSearcher(g)
	var dist []float64
	for i := range altSeeds {
		l := a.seed[min(i, len(a.seed)-1)]
		dist = s.DistancesToAll(l, dist)
		for v, d := range dist {
			a.tab[v][2*i] = quantaUp(d)
		}
		dist = s.DistancesToAllReverse(l, dist)
		for v, d := range dist {
			a.tab[v][2*i+1] = quantaDown(d)
		}
	}
	a.adj = s.forward()
	return a, nil
}

// NumSeeds returns the number of ALT landmarks, each counted once.
func (a *ALT) NumSeeds() int { return len(a.seed) }

// ALTSearcher carries the per-query state for ALT searches; one per
// goroutine, like Searcher.
type ALTSearcher struct {
	alt *ALT
	s   *Searcher
}

// NewSearcher creates a query context bound to the ALT tables and their
// flat adjacency, its ring sized.
func (a *ALT) NewSearcher() *ALTSearcher {
	s := NewSearcher(a.g)
	s.sw.fwd = a.adj
	s.ring.start(a.adj, len(s.labels))
	return &ALTSearcher{alt: a, s: s}
}

// ShortestPath runs the Searcher's A* loop with the ALT heuristic.
// Results are identical to Searcher.ShortestPath; only the labelled-node
// count differs.
func (as *ALTSearcher) ShortestPath(source, target NodeID) SPResult {
	return as.s.astar(source, target, as.alt.tab, nil)
}

// LabelledNodes reports how many nodes the last search labelled — the
// quantity ALT reduces. Exposed for benchmarks and tests.
func (as *ALTSearcher) LabelledNodes() int { return as.s.LabelledNodes() }
