package roadnet

import "math"

// maxBucketSpan bounds the ring of buckets: the bucket width is the
// shortest arc, widened until the longest arc spans at most this many.
const maxBucketSpan = 1024

// maxKeySlots bounds the A* loop's ring; keys past it wait in its
// overflow heap.
const maxKeySlots = 1 << 12

// setBuckets sets the kernels' bucket parameters from the arcs'
// lengths.
func (r *rows) setBuckets() {
	minW, maxW := math.Inf(1), 0.0
	for _, l := range r.length {
		if !math.IsInf(l, 1) { // an endless arc relaxes nothing
			minW, maxW = min(minW, l), max(maxW, l)
		}
	}
	// Queued distances lie within one longest arc of the bucket being
	// emptied, so a ring two slots longer than that arc never wraps onto a
	// live bucket.
	width := max(minW, maxW/maxBucketSpan)
	if maxW == 0 {
		width = 1 // no arcs: the source is all a sweep settles
	}
	r.inv = 1 / width
	slots := 1
	for slots < int(maxW*r.inv)+3 {
		slots <<= 1
	}
	r.mask = slots - 1

	kw := 1.0 / quantaPerMetre
	for maxW > 0 && kw*32 <= minW {
		kw *= 2
	}
	r.keyInv = 1 / kw
	slots = 64
	for slots < maxKeySlots && float64(slots) < 2*maxW*r.keyInv+2 {
		slots <<= 1
	}
	r.keyMask = slots - 1
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
	return s.sweep(&s.g.rows, source, dist)
}

// DistancesToAllReverse is DistancesToAll on the reverse graph: every
// node's driving distance to source.
func (s *Searcher) DistancesToAllReverse(source NodeID, dist []float64) []float64 {
	return s.sweep(s.reverse(), source, dist)
}

func (s *Searcher) sweep(r *rows, source NodeID, dist []float64) []float64 {
	n := len(r.off) - 1
	if cap(dist) < n {
		dist = make([]float64, n)
	}
	dist = dist[:n]
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if len(s.buckets) <= r.mask {
		s.buckets = make([][]NodeID, r.mask+1)
	}
	off, to, w, inv, mask, ring := r.off, r.head, r.length, r.inv, r.mask, s.buckets

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
