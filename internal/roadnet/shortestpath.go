package roadnet

import (
	"fmt"
	"math"
	"math/bits"
)

// pqItem is one entry of the binary-heap priority queue. prio is the
// ordering key.
type pqItem struct {
	node NodeID
	prio float64
}

// pq is a hand-rolled typed binary min-heap on prio: the queue of the
// bounded searches (DistancesWithin), of CH's preprocessing, and the
// overflow of the A* loop's bucket ring. container/heap would box every
// pqItem through interface{} (one allocation per push); the typed version
// reuses one backing slice across searches and allocates only when the
// slice grows.
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

// quantaPerMetre is the resolution of an A* heuristic value: the loop
// takes h in sixteenths of a metre, so that the ALT bound is a max of
// int32s and a label stays 32 bytes.
const quantaPerMetre = 16

// label.slot outside the ring.
const (
	notQueued  int32 = -1
	inOverflow int32 = -2
)

// label is the per-node scratch of one search: tentative distance,
// heuristic value in quanta (evaluated once, at first touch),
// predecessor, the generation mark that makes reset O(1), and the node's
// place in the A* loop's bucket queue — its ring slot (or notQueued,
// inOverflow) and its neighbours in that slot's list. 32 bytes, two to a
// cache line.
type label struct {
	dist       float64
	h          int32
	stamp      uint32
	prev       NodeID
	slot       int32
	next, back NodeID
}

// Searcher bundles the per-search scratch state so that a read-only Graph
// can serve many concurrent searches: each goroutine owns one Searcher.
// Reusing a Searcher across queries avoids reallocating the O(n) array.
type Searcher struct {
	g      *Graph
	labels []label
	gen    uint32
	queue  pq       // DistancesWithin's heap
	kq     keyQueue // the A* loop's
	sw     sweep    // flat adjacency and one-to-all scratch; see DistancesToAll
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

// LabelledNodes reports how many nodes the last search labelled — every
// node it reached, expanded or not: the quantity a tighter heuristic
// reduces. Exposed for benchmarks and tests.
func (s *Searcher) LabelledNodes() int {
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

// keyQueue is the A* loop's monotone bucket queue (Dial's), keyed on
// k = dist + h. Bucket b holds the nodes with ⌊k·inv⌋ = b; the buckets
// from the one being emptied, cur, onwards fit in a ring of mask+1 slots,
// each slot an intrusive doubly linked list threaded through the labels,
// so a node is relabelled in place and never queued twice. A bitmap marks
// the slots whose list is not empty, so the loop steps over a run of empty
// buckets a word at a time. Keys past the ring wait in an overflow heap
// until their bucket comes up.
type keyQueue struct {
	head []NodeID // the first node of each slot's list, where full marks it
	full []uint64 // bit slot: the slot's list is not empty
	over pq
	inv  float64 // flatAdj.keyInv: a power of two, so k·inv is exact
	mask int
	cur  int
}

// maxBucket caps a bucket index, so that converting k·inv to an int is
// defined for every key; keys beyond it share the last bucket.
const maxBucket = 1 << 62

func (q *keyQueue) bucket(k float64) int {
	if b := k * q.inv; b < maxBucket {
		return int(b)
	}
	return maxBucket
}

// gap returns how many slots past slot, which is empty, the next
// non-empty one lies, or 0 when every slot is empty.
func (q *keyQueue) gap(slot int) int {
	n := len(q.full)
	w := slot >> 6
	x := q.full[w] &^ (uint64(2)<<(slot&63) - 1) // the slots past slot in its word
	// The words after it, wrapping round to slot's own: what is left there
	// lies before slot, the ring's last slots.
	for i := 1; x == 0; i++ {
		if i > n {
			return 0
		}
		w = (w + 1) & (n - 1)
		x = q.full[w]
	}
	return (w<<6 + bits.TrailingZeros64(x) - slot) & q.mask
}

func key(lb *label) float64 { return lb.dist + float64(lb.h)/quantaPerMetre }

// push queues v, which is not in the ring, under its current key: into
// the bucket being emptied if the key lies below it (the loop is
// label-correcting inside a bucket), onto the overflow heap if the key
// lies past the ring.
func (s *Searcher) push(v NodeID) {
	q := &s.kq
	k := key(&s.labels[v])
	if b := q.bucket(k); b <= q.cur+q.mask {
		s.link(v, int32(max(b, q.cur)&q.mask))
	} else {
		s.labels[v].slot = inOverflow
		q.over.push(pqItem{node: v, prio: k})
	}
}

// link puts v at the front of slot's list.
func (s *Searcher) link(v NodeID, slot int32) {
	q, lv := &s.kq, &s.labels[v]
	f, w, bit := InvalidNode, slot>>6, uint64(1)<<(slot&63)
	if q.full[w]&bit != 0 {
		f = q.head[slot]
		s.labels[f].back = v
	} else {
		q.full[w] |= bit
	}
	lv.slot, lv.next, lv.back = slot, f, InvalidNode
	q.head[slot] = v
}

// unlink takes v, which is in the ring, out of its slot's list.
func (s *Searcher) unlink(v NodeID) {
	q, lv := &s.kq, &s.labels[v]
	if lv.back != InvalidNode {
		s.labels[lv.back].next = lv.next
	} else if q.head[lv.slot] = lv.next; lv.next == InvalidNode {
		q.full[lv.slot>>6] &^= 1 << (lv.slot & 63)
	}
	if lv.next != InvalidNode {
		s.labels[lv.next].back = lv.back
	}
	lv.slot = notQueued
}

// pop removes and returns a node of the lowest non-empty bucket. It
// returns InvalidNode when the queue is empty or when the lower edge of
// that bucket lies past limit, the target's label: every key queued is
// then larger than limit, and so, h being admissible, is the length of
// any path through its node.
func (s *Searcher) pop(limit float64) NodeID {
	q := &s.kq
	for {
		slot := q.cur & q.mask
		if q.full[slot>>6]&(1<<(slot&63)) != 0 {
			v := q.head[slot]
			s.unlink(v)
			return v
		}
		// Bucket cur is empty (and, the loop never queueing below cur,
		// stays so): move to the next one that holds a node, in the ring
		// or at the top of the overflow heap.
		next := 0
		if d := q.gap(slot); d > 0 {
			next = q.cur + d
		}
		if len(q.over) > 0 {
			if b := max(q.cur+1, q.bucket(q.over[0].prio)); next == 0 || b < next {
				next = b
			}
		}
		if next == 0 {
			return InvalidNode
		}
		q.cur = next
		if float64(q.cur) > limit*q.inv {
			return InvalidNode
		}
		// Keys the ring could not hold when they were queued enter it when
		// their bucket comes up; an entry whose node has since been
		// relabelled or linked is stale.
		for len(q.over) > 0 && q.bucket(q.over[0].prio) <= q.cur {
			it := q.over.pop()
			if lv := &s.labels[it.node]; lv.slot == inOverflow && it.prio == key(lv) {
				s.link(it.node, int32(q.cur&q.mask))
			}
		}
	}
}

// astar is the one A* loop behind every heuristic search: a
// label-correcting search in key order over the flat adjacency, with the
// bucket queue above. h returns a lower bound on the remaining driving
// distance in quanta; it is evaluated once per labelled node and cached
// in the node's label, and must be 0 at target. The target is labelled
// but never queued, and the search stops once no queued key can undercut
// its label, so an admissible h is enough for exact distances —
// consistency only saves work.
func (s *Searcher) astar(source, target NodeID, h func(NodeID) int32) SPResult {
	if source == target {
		return SPResult{Dist: 0, Path: []NodeID{source}}
	}
	adj := s.forward()
	s.reset()
	q := &s.kq
	if len(q.head) <= adj.keyMask {
		q.head = make([]NodeID, adj.keyMask+1)
		q.full = make([]uint64, (adj.keyMask+1)/64)
	}
	q.full = q.full[:(adj.keyMask+1)/64]
	clear(q.full)
	q.over, q.inv, q.mask = q.over[:0], adj.keyInv, adj.keyMask
	labels, gen := s.labels, s.gen
	off, to, w := adj.off, adj.to, adj.w

	labels[source] = label{h: h(source), prev: InvalidNode, stamp: gen}
	q.cur = q.bucket(key(&labels[source]))
	s.push(source)
	dt := math.Inf(1) // the target's label
	for v := s.pop(dt); v != InvalidNode; v = s.pop(dt) {
		lv := &labels[v]
		if key(lv) >= dt {
			continue // in the last bucket, past the target's label
		}
		dv := lv.dist
		for e := off[v]; e < off[v+1]; e++ {
			u := to[e]
			nd := dv + w[e]
			lu := &labels[u]
			switch {
			case lu.stamp != gen: // first touch: the one evaluation of h
				*lu = label{dist: nd, h: h(u), prev: v, stamp: gen, slot: notQueued}
			case nd < lu.dist:
				lu.dist, lu.prev = nd, v
				if lu.slot >= 0 {
					s.unlink(u)
				}
			default:
				continue
			}
			if u == target {
				dt = nd
				continue
			}
			s.push(u)
		}
	}
	if math.IsInf(dt, 1) {
		return SPResult{Dist: dt}
	}
	return SPResult{Dist: dt, Path: s.buildPath(target)}
}

// chordQuanta is the plain A* heuristic in quanta: Graph.chordBound,
// rounded down.
func chordQuanta(g *Graph, v, t NodeID) int32 {
	return int32(g.chordBound(v, t) * quantaPerMetre)
}

// ShortestPath runs A* from source to target on edge lengths with the
// straight chord to the target as heuristic (Graph.chordBound: no
// trigonometry, never more than the driving distance, so the result is
// exact). It is the routing primitive used when a ride offer is created
// and when a booking is confirmed.
func (s *Searcher) ShortestPath(source, target NodeID) SPResult {
	g := s.g
	return s.astar(source, target, func(v NodeID) int32 { return chordQuanta(g, v, target) })
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
// each edge's speed. It returns an error naming the first step that is
// not an edge.
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
			return 0, fmt.Errorf("roadnet: path step %d: nodes %d→%d not adjacent", i, path[i-1], path[i])
		}
		total += best
	}
	return total, nil
}
