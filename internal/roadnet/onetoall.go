package roadnet

import "math"

// flatAdj is one direction of a Graph's adjacency in compressed rows: the
// arcs leaving node v are to[off[v]:off[v+1]] with lengths w[...]. The
// one-to-all kernel and the A* loop read 12 bytes an arc from three flat
// arrays where g.out holds a 32-byte Edge behind a slice header per node.
type flatAdj struct {
	off []int32
	to  []NodeID
	w   []float64
	// The one-to-all kernel's bucket queue: a distance d is queued in
	// bucket int(d·inv), and the buckets that hold anything at one time
	// fit in a ring of mask+1 slots.
	inv  float64
	mask int
	// The A* loop's (ring): buckets a power of two metres wide, the widest
	// not over a sixteenth of the shortest arc and never under one quantum
	// (4 m on the generated cities, whose shortest arc is 94 m), in a ring
	// that spans twice the longest arc, of 64 to maxKeySlots slots.
	keyInv  float64
	keyMask int
}

// maxBucketSpan bounds the ring of buckets: the bucket width is the
// shortest arc, widened until the longest arc spans at most this many.
const maxBucketSpan = 1024

// maxKeySlots bounds the A* loop's ring; keys past it wait in its
// overflow heap.
const maxKeySlots = 1 << 12

func flatten(adj [][]Edge, edges int) *flatAdj {
	f := &flatAdj{
		off: make([]int32, len(adj)+1),
		to:  make([]NodeID, 0, edges),
		w:   make([]float64, 0, edges),
	}
	minW, maxW := math.Inf(1), 0.0
	for v, es := range adj {
		for i := range es {
			l := es[i].Length
			f.to = append(f.to, es[i].To)
			f.w = append(f.w, l)
			if !math.IsInf(l, 1) { // an endless arc relaxes nothing
				minW, maxW = min(minW, l), max(maxW, l)
			}
		}
		f.off[v+1] = int32(len(f.to))
	}
	// Queued distances lie within one longest arc of the bucket being
	// emptied, so a ring two slots longer than that arc never wraps onto a
	// live bucket.
	width := max(minW, maxW/maxBucketSpan)
	if maxW == 0 {
		width = 1 // no arcs: the source is all a sweep settles
	}
	f.inv = 1 / width
	slots := 1
	for slots < int(maxW*f.inv)+3 {
		slots <<= 1
	}
	f.mask = slots - 1

	kw := 1.0 / quantaPerMetre
	for maxW > 0 && kw*32 <= minW {
		kw *= 2
	}
	f.keyInv = 1 / kw
	slots = 64
	for slots < maxKeySlots && float64(slots) < 2*maxW*f.keyInv+2 {
		slots <<= 1
	}
	f.keyMask = slots - 1
	return f
}

// current reports whether f was flattened from g as it is now: AddNode
// and AddEdge are the only mutators and each grows one of the two counts.
func (f *flatAdj) current(g *Graph) bool {
	return f != nil && len(f.off) == len(g.pts)+1 && len(f.to) == g.edgeCnt
}

// sweep is a Searcher's flat adjacency, built at its first query, and the
// one-to-all kernel's ring of buckets. It belongs to the Searcher and not
// to the Graph, so the copy dies with the pre-processing that needed it
// rather than staying in every deep size taken through the graph. Only
// the ring is written, so searchers may share a flat adjacency: an ALT
// builds one and hands it to all of its searchers.
type sweep struct {
	fwd, rev *flatAdj
	buckets  [][]NodeID
}

// forward returns the flat forward adjacency, flattening g first if it
// has none or g has grown since.
func (s *Searcher) forward() *flatAdj {
	if !s.sw.fwd.current(s.g) {
		s.sw.fwd = flatten(s.g.out, s.g.edgeCnt)
	}
	return s.sw.fwd
}

// DistancesToAll is the one-to-all kernel: an unbounded Dijkstra from
// source over outgoing edges that writes every node's driving distance
// (+Inf where unreachable) into dist and returns it. dist is reused when
// it has room for every node and allocated otherwise, so a caller that
// sweeps from many sources — the landmark–landmark matrix, the ALT tables
// — passes the same slice each time; nothing is called per settled node.
//
// The queue is a ring of buckets as wide as the graph's shortest arc, so
// no comparison orders it: emptying bucket b can only fill later buckets,
// and a node is expanded once, when its bucket comes up. (Where the arcs'
// lengths spread over more than maxBucketSpan the buckets are wider than
// the shortest, an arc can land in the bucket being emptied, and a node
// improved after it was expanded is expanded again — label-correcting
// inside a bucket, still exact.) Distances are those of
// DistancesWithin(source, +Inf) bit for bit: either way a node ends at
// the minimum over its in-neighbours of their final distance plus the
// arc, and floating-point addition is monotone, so that minimum does not
// depend on the order nodes were expanded in.
func (s *Searcher) DistancesToAll(source NodeID, dist []float64) []float64 {
	return s.sw.run(s.forward(), source, dist)
}

// DistancesToAllReverse is DistancesToAll on the reverse graph: every
// node's driving distance to source.
func (s *Searcher) DistancesToAllReverse(source NodeID, dist []float64) []float64 {
	if !s.sw.rev.current(s.g) {
		s.sw.rev = flatten(s.g.in, s.g.edgeCnt)
	}
	return s.sw.run(s.sw.rev, source, dist)
}

func (sw *sweep) run(adj *flatAdj, source NodeID, dist []float64) []float64 {
	n := len(adj.off) - 1
	if cap(dist) < n {
		dist = make([]float64, n)
	}
	dist = dist[:n]
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if len(sw.buckets) <= adj.mask {
		sw.buckets = make([][]NodeID, adj.mask+1)
	}
	off, to, w, inv, mask, ring := adj.off, adj.to, adj.w, adj.inv, adj.mask, sw.buckets

	dist[source] = 0
	ring[0] = append(ring[0], source)
	queued := 1 // entries in the ring, stale ones included
	for cur := 0; queued > 0; cur++ {
		slot := cur & mask
		b := ring[slot]
		for len(b) > 0 {
			v := b[len(b)-1]
			b = b[:len(b)-1]
			queued--
			dv := dist[v]
			if int(dv*inv) != cur {
				continue // stale: v improved into an earlier bucket and was expanded there
			}
			for e := off[v]; e < off[v+1]; e++ {
				u := to[e]
				nd := dv + w[e]
				if nd >= dist[u] {
					continue
				}
				dist[u] = nd
				queued++
				if us := int(nd*inv) & mask; us != slot {
					ring[us] = append(ring[us], u)
				} else {
					b = append(b, u)
				}
			}
		}
		ring[slot] = b[:0]
	}
	return dist
}
