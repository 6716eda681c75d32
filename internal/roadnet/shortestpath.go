package roadnet

import "math"

// pqItem is one entry of the binary-heap priority queue used by all the
// searches in this file. prio is the ordering key (distance, or distance
// plus heuristic for A*).
type pqItem struct {
	node NodeID
	prio float64
}

// pq is a hand-rolled typed binary min-heap on prio. container/heap
// would box every pqItem through interface{} (one allocation per push on
// the Dijkstra/A* hot path); the typed version reuses one backing slice
// across searches and allocates only when the slice grows.
type pq []pqItem

func (q pq) Len() int { return len(q) }

// push inserts it: the free slot at the tail moves up past every parent
// that is larger, and it is written once. Same comparisons, and so the
// same heap layout, as sifting with swaps.
func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].prio <= it.prio {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// pop removes and returns the minimum-prio item. The last item is held
// aside while the hole at the root moves down past every smaller child
// (the left one on a tie, the right one only when strictly smaller), then
// written once — half the stores of a swap per level.
func (q *pq) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].prio < h[c].prio {
			c = r
		}
		if h[c].prio >= last.prio {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// SPResult is the outcome of a single-pair shortest-path search.
type SPResult struct {
	Dist float64  // meters; +Inf if unreachable
	Path []NodeID // from source to target inclusive; nil if unreachable
}

// Reachable reports whether the search found the target.
func (r SPResult) Reachable() bool { return !math.IsInf(r.Dist, 1) }

// label is the per-node scratch of one search: tentative distance,
// heuristic value (evaluated once, at first touch), predecessor, and the
// generation mark that makes reset O(1).
type label struct {
	dist, h float64
	prev    NodeID
	stamp   uint32
}

// Searcher bundles the per-search scratch state so that a read-only Graph
// can serve many concurrent searches: each goroutine owns one Searcher.
// Reusing a Searcher across queries avoids reallocating the O(n) array.
type Searcher struct {
	g      *Graph
	labels []label
	gen    uint32
	queue  pq
	sw     sweep // one-to-all scratch; see DistancesToAll
}

// NewSearcher creates a Searcher bound to g.
func NewSearcher(g *Graph) *Searcher {
	return &Searcher{g: g, labels: make([]label, g.NumNodes())}
}

func (s *Searcher) reset() {
	s.gen++
	if s.gen == 0 { // wrapped: clear stamps once every 4G searches
		for i := range s.labels {
			s.labels[i].stamp = 0
		}
		s.gen = 1
	}
	s.queue = s.queue[:0]
}

// relax records d (reached from from) as v's distance if this search has
// not touched v or d improves on what it has; it reports whether it did.
func (s *Searcher) relax(v NodeID, d float64, from NodeID) bool {
	lb := &s.labels[v]
	if lb.stamp == s.gen && d >= lb.dist {
		return false
	}
	lb.stamp, lb.dist, lb.prev = s.gen, d, from
	return true
}

// SettledNodes reports how many nodes the last search touched — the
// quantity a tighter heuristic reduces. Exposed for benchmarks and tests.
func (s *Searcher) SettledNodes() int {
	n := 0
	for i := range s.labels {
		if s.labels[i].stamp == s.gen {
			n++
		}
	}
	return n
}

func (s *Searcher) buildPath(target NodeID) []NodeID {
	n := 0
	for v := target; v != InvalidNode; v = s.labels[v].prev {
		n++
	}
	path := make([]NodeID, n)
	for v := target; v != InvalidNode; v = s.labels[v].prev {
		n--
		path[n] = v
	}
	return path
}

// astar is the one A* loop behind every heuristic search: it settles
// nodes in order of distance + h and stops when target is popped. h must
// never exceed the remaining driving distance and must be 0 at target;
// it is evaluated once per touched node and cached in the node's label.
// A node is re-queued whenever its distance improves, so an admissible h
// is enough for exact distances — consistency only saves work.
func (s *Searcher) astar(source, target NodeID, h func(NodeID) float64) SPResult {
	if source == target {
		return SPResult{Dist: 0, Path: []NodeID{source}}
	}
	s.reset()
	hs := h(source)
	labels, gen := s.labels, s.gen
	labels[source] = label{h: hs, prev: InvalidNode, stamp: gen}
	s.queue.push(pqItem{node: source, prio: hs})
	for s.queue.Len() > 0 {
		it := s.queue.pop()
		v := it.node
		lv := &labels[v]
		if v == target {
			return SPResult{Dist: lv.dist, Path: s.buildPath(v)}
		}
		dv := lv.dist
		if it.prio > dv+lv.h { // stale entry
			continue
		}
		out := s.g.out[v]
		for i := range out {
			e := &out[i] // by index: an Edge is 32 bytes, two of them are used
			nd := dv + e.Length
			lw := &labels[e.To]
			switch {
			case lw.stamp != gen: // first touch: the one evaluation of h
				*lw = label{dist: nd, h: h(e.To), prev: v, stamp: gen}
			case nd < lw.dist:
				lw.dist, lw.prev = nd, v
			default:
				continue
			}
			s.queue.push(pqItem{node: e.To, prio: nd + lw.h})
		}
	}
	return SPResult{Dist: math.Inf(1)}
}

// ShortestPath runs A* from source to target on edge lengths with the
// straight chord to the target as heuristic (Graph.chordBound: no
// trigonometry, never more than the driving distance, so the result is
// exact). It is the routing primitive used when a ride offer is created
// and when a booking is confirmed.
func (s *Searcher) ShortestPath(source, target NodeID) SPResult {
	g := s.g
	return s.astar(source, target, func(v NodeID) float64 { return g.chordBound(v, target) })
}

// Visit is the callback of the bounded searches. Returning false stops the
// search early.
type Visit func(node NodeID, dist float64) bool

// DistancesWithin runs a Dijkstra from source over outgoing edges, calling
// visit for every node settled at distance ≤ radius, in increasing
// distance order. It is the workhorse of the discretization pre-processing
// (grid→landmark assignments use a bounded search of radius Δ from each
// landmark over the *reverse* graph; see DistancesWithinReverse).
func (s *Searcher) DistancesWithin(source NodeID, radius float64, visit Visit) {
	s.bounded(source, radius, visit, false)
}

// DistancesWithinReverse is DistancesWithin on the reverse graph: it
// settles the nodes from which source can be reached within radius. Since
// "drive from grid g to landmark l" follows edge directions g→l, the
// per-landmark pre-processing uses the reverse search from l.
func (s *Searcher) DistancesWithinReverse(source NodeID, radius float64, visit Visit) {
	s.bounded(source, radius, visit, true)
}

func (s *Searcher) bounded(source NodeID, radius float64, visit Visit, reverse bool) {
	if radius < 0 {
		return
	}
	s.reset()
	s.relax(source, 0, InvalidNode)
	s.queue.push(pqItem{node: source, prio: 0})
	for s.queue.Len() > 0 {
		it := s.queue.pop()
		v := it.node
		dv := s.labels[v].dist
		if it.prio > dv { // stale entry
			continue
		}
		if dv > radius {
			return
		}
		if !visit(v, dv) {
			return
		}
		edges := s.g.Out(v)
		if reverse {
			edges = s.g.In(v)
		}
		for _, e := range edges {
			nd := dv + e.Length
			if nd <= radius && s.relax(e.To, nd, v) {
				s.queue.push(pqItem{node: e.To, prio: nd})
			}
		}
	}
}

// TravelTime converts a path to a free-flow travel time in seconds using
// each edge's speed. It returns an error for non-adjacent steps.
func (g *Graph) TravelTime(path []NodeID) (float64, error) {
	var total float64
	for i := 1; i < len(path); i++ {
		var best float64 = math.Inf(1)
		found := false
		for _, e := range g.out[path[i-1]] {
			if e.To == path[i] {
				t := e.Length / e.Speed
				if t < best {
					best = t
				}
				found = true
			}
		}
		if !found {
			return 0, errNotAdjacent(path[i-1], path[i])
		}
		total += best
	}
	return total, nil
}

type notAdjacentError struct{ from, to NodeID }

func (e notAdjacentError) Error() string {
	return "roadnet: nodes not adjacent in path"
}

func errNotAdjacent(from, to NodeID) error { return notAdjacentError{from, to} }
