package roadnet

import (
	"fmt"
	"math"
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
// int32s and a label stays 24 bytes.
const quantaPerMetre = 16

// label.mark outside the ring.
const (
	notQueued  int32 = -1
	inOverflow int32 = -2
)

// label is the per-node scratch of one search: tentative distance,
// heuristic value in quanta (evaluated once, at first touch),
// predecessor, the generation mark that makes reset O(1), and the ring
// slot of the node's live entry (or notQueued, inOverflow). 24 bytes.
type label struct {
	dist  float64
	h     int32
	stamp uint32
	prev  NodeID
	mark  int32
}

// Searcher bundles the per-search scratch state so that a read-only Graph
// can serve many concurrent searches: each goroutine owns one Searcher.
// Reusing a Searcher across queries avoids reallocating the O(n) array.
type Searcher struct {
	g        *Graph
	rev      *rows // g's reverse rows, derived at the first reverse search
	labels   []label
	gen      uint32
	labelled int        // nodes this generation has labelled
	queue    pq         // DistancesWithin's heap
	ring     ring       // the A* loop's
	buckets  [][]NodeID // the one-to-all kernel's ring; see DistancesToAll
}

// NewSearcher creates a Searcher bound to g.
func NewSearcher(g *Graph) *Searcher {
	return &Searcher{g: g, labels: make([]label, g.NumNodes())}
}

// reverse returns g's reverse rows, derived at the first call and kept
// by the Searcher, so they die with the pre-processing that needed them.
func (s *Searcher) reverse() *rows {
	if s.rev == nil {
		s.rev = s.g.reversed()
	}
	return s.rev
}

func (s *Searcher) reset() {
	s.gen++
	if s.gen == 0 { // wrapped: clear stamps once every 4G searches
		for i := range s.labels {
			s.labels[i].stamp = 0
		}
		s.gen = 1
	}
	s.labelled = 0
	s.queue = s.queue[:0]
}

// relax records d (reached from from) as v's distance if this search has
// not touched v or d improves on what it has; it reports whether it did.
func (s *Searcher) relax(v NodeID, d float64, from NodeID) bool {
	lb := &s.labels[v]
	if lb.stamp == s.gen && d >= lb.dist {
		return false
	}
	if lb.stamp != s.gen {
		s.labelled++
	}
	lb.stamp, lb.dist, lb.prev = s.gen, d, from
	return true
}

// LabelledNodes reports how many nodes the last search labelled — every
// node it reached, expanded or not: the quantity a tighter heuristic
// reduces. The searches count them as they label, so reading it costs
// nothing: the engine sums it over every create's and booking's paths.
func (s *Searcher) LabelledNodes() int { return s.labelled }

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

// ring is the A* loop's monotone bucket queue (Dial's), keyed on
// k = dist + h: bucket b holds the nodes queued with ⌊k·inv⌋ = b, and the
// buckets from cur, the one being emptied, to hi fit in a ring of mask+1
// slots, each a stack. A relabelled node is pushed again and its old
// entry left behind; its label marks the slot of the newest entry, which
// lies above any older one there, so a pop skips an entry whose node is
// marked elsewhere or was expanded since. The stacks share one pool of
// entries that reuses popped ones; entry 0 is never used, so 0 ends a
// stack. Keys past the ring wait in an overflow heap.
type ring struct {
	top     []int32 // each slot's top entry, 0 if empty
	ent     []ringEntry
	free    int32 // the first reusable entry, 0 if none
	over    pq
	inv     float64 // rows.keyInv: a power of two, so k·inv is exact
	mask    int
	cur, hi int
}

// ringEntry is a node and the entry below it, or the next reusable one.
type ringEntry struct {
	node NodeID
	next int32
}

// start readies q for a search over r, sizing it the first time: a pool
// of half as many entries as the graph's n nodes, more than twice the
// most a search holds at once (708 of 3 520 nodes on the 80x44 city's
// random pairs, ALT; 306, plain A*). A search that needs more grows it
// once, and the searcher keeps it.
func (q *ring) start(r *rows, n int) {
	if len(q.top) <= r.keyMask {
		q.top = make([]int32, r.keyMask+1)
		q.ent = make([]ringEntry, 1, 1+n/2)
	}
	q.ent, q.free, q.over = q.ent[:1], 0, q.over[:0]
	q.inv, q.mask = r.keyInv, r.keyMask
}

// stop empties the slots a search left filled, cur's to hi's (where cur
// is past hi the ring is empty already, and clearing it is harmless).
func (q *ring) stop() {
	if lo, hi := q.cur&q.mask, q.hi&q.mask; lo <= hi {
		clear(q.top[lo : hi+1])
	} else { // round the end of the ring
		clear(q.top[lo : q.mask+1])
		clear(q.top[:hi+1])
	}
}

// maxBucket caps a bucket index, so that converting k·inv to an int is
// defined for every key; keys beyond it share the last bucket.
const maxBucket = 1 << 62

func (q *ring) bucket(k float64) int {
	if b := k * q.inv; b < maxBucket {
		return int(b)
	}
	return maxBucket
}

// stack pushes v, whose label is lv, onto bucket b's stack.
func (q *ring) stack(v NodeID, lv *label, b int) {
	slot, i := int32(b&q.mask), q.free
	if i > 0 {
		q.free = q.ent[i].next
		q.ent[i] = ringEntry{v, q.top[slot]}
	} else {
		i = int32(len(q.ent))
		q.ent = append(q.ent, ringEntry{v, q.top[slot]})
	}
	q.top[slot], lv.mark, q.hi = i, slot, max(q.hi, b)
}

func key(lb *label) float64 { return lb.dist + float64(lb.h)/quantaPerMetre }

// advance moves cur from its bucket, now empty for good (nothing is
// queued below cur), to the next one holding an entry, in the ring or on
// the overflow heap. It reports false when the queue is empty or that
// bucket's lower edge lies past limit, the target's label: every queued
// key, and so, h being admissible, every path through its node, is then
// longer.
func (s *Searcher) advance(limit float64) bool {
	q := &s.ring
	next := 0
	for b := q.cur + 1; b <= q.hi; b++ {
		if q.top[b&q.mask] > 0 {
			next = b
			break
		}
	}
	if len(q.over) > 0 {
		if b := max(q.cur+1, q.bucket(q.over[0].prio)); next == 0 || b < next {
			next = b
		}
	}
	if next == 0 || float64(next) > limit*q.inv {
		return false
	}
	q.cur = next
	// Keys the ring could not hold when they were queued enter it when
	// their bucket comes up; an entry whose node has since been relabelled
	// is stale.
	for len(q.over) > 0 && q.bucket(q.over[0].prio) <= q.cur {
		it := q.over.pop()
		if lv := &s.labels[it.node]; lv.mark == inOverflow && it.prio == key(lv) {
			q.stack(it.node, lv, q.cur)
		}
	}
	return true
}

// astar is the one A* loop behind every heuristic search: a
// label-correcting search in key order over the graph's rows and the
// ring above. The lower bound on the remaining distance, in quanta, is
// read off tab, ALT's rows (inline, no closure), or, where tab is
// nil, got from h; it is evaluated once per labelled node and must be 0
// at target. The target is labelled but never queued, and the search
// stops once no queued key can undercut its label, so an admissible bound
// is enough for exact distances — consistency only saves work.
func (s *Searcher) astar(source, target NodeID, tab []altRow, h func(NodeID) int32) SPResult {
	if source == target {
		return SPResult{Dist: 0, Path: []NodeID{source}}
	}
	r := &s.g.rows
	s.reset()
	q := &s.ring
	q.start(r, len(s.labels))
	var rt altRow // the target's shaved row, where tab is set
	var hs int32
	if tab != nil {
		rt = tab[target].shaved()
		hs = rt.bound(&tab[source])
	} else {
		hs = h(source)
	}
	labels, gen := s.labels, s.gen
	off, to, w := r.off, r.head, r.length

	ls := &labels[source]
	*ls = label{h: hs, prev: InvalidNode, stamp: gen}
	s.labelled++
	q.cur, q.hi = q.bucket(key(ls)), 0
	q.stack(source, ls, q.cur)
	dt := math.Inf(1) // the target's label
	for {
		slot := int32(q.cur & q.mask)
		i := q.top[slot]
		if i == 0 {
			if !s.advance(dt) {
				break
			}
			continue
		}
		e := &q.ent[i]
		v := e.node
		q.top[slot], e.next, q.free = e.next, q.free, i
		lv := &labels[v]
		if lv.mark != slot {
			continue // stale: v was queued again since, or expanded
		}
		lv.mark = notQueued
		if key(lv) >= dt {
			continue // in the last bucket, past the target's label
		}
		dv := lv.dist
		for e := off[v]; e < off[v+1]; e++ {
			u := to[e]
			nd := dv + w[e]
			lu := &labels[u]
			switch {
			case lu.stamp != gen: // first touch: the one evaluation of the bound
				var hu int32
				if tab != nil {
					hu = rt.bound(&tab[u])
				} else {
					hu = h(u)
				}
				// Field by field, as a composite literal is copied over from
				// the stack in pieces that stall store forwarding; the mark
				// is the push's to set (the target is never pushed).
				lu.dist, lu.h, lu.stamp, lu.prev = nd, hu, gen, v
				s.labelled++
			case nd < lu.dist:
				lu.dist, lu.prev = nd, v
			default:
				continue
			}
			if u == target {
				dt = nd
				continue
			}
			// Queue u in the bucket being emptied if its key lies below it
			// (label-correcting inside a bucket), past the ring on the heap.
			k := key(lu)
			if b := q.bucket(k); b <= q.cur+q.mask {
				q.stack(u, lu, max(b, q.cur))
			} else {
				lu.mark = inOverflow
				q.over.push(pqItem{node: u, prio: k})
			}
		}
	}
	q.stop()
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
	return s.astar(source, target, nil, func(v NodeID) int32 { return chordQuanta(g, v, target) })
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
	s.bounded(&s.g.rows, source, radius, visit)
}

// DistancesWithinReverse is DistancesWithin on the reverse graph: it
// settles the nodes from which source can be reached within radius. Since
// "drive from grid g to landmark l" follows edge directions g→l, the
// per-landmark pre-processing uses the reverse search from l.
func (s *Searcher) DistancesWithinReverse(source NodeID, radius float64, visit Visit) {
	s.bounded(s.reverse(), source, radius, visit)
}

func (s *Searcher) bounded(r *rows, source NodeID, radius float64, visit Visit) {
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
		for e := r.off[v]; e < r.off[v+1]; e++ {
			u, nd := r.head[e], dv+r.length[e]
			if nd <= radius && s.relax(u, nd, v) {
				s.queue.push(pqItem{node: u, prio: nd})
			}
		}
	}
}

// TravelTime converts a path to a free-flow travel time in seconds using
// each edge's speed (the fastest of parallel edges). It returns an error
// naming the first step that is not an edge.
func (g *Graph) TravelTime(path []NodeID) (float64, error) {
	var total float64
	for i := 1; i < len(path); i++ {
		_, t, ok := g.hop(path[i-1], path[i])
		if !ok {
			return 0, fmt.Errorf("roadnet: path step %d: nodes %d→%d not adjacent", i, path[i-1], path[i])
		}
		total += t
	}
	return total, nil
}
