package roadnet

import (
	"math"

	"xar/internal/geo"
)

// NodeIndex answers nearest-node queries over a graph's geometry with a
// uniform bucket grid. Point locations (ride sources, request origins)
// are snapped to road nodes through this index before any shortest-path
// work happens.
type NodeIndex struct {
	g        *Graph
	box      geo.BBox
	cell     float64 // bucket edge, meters
	dLat     float64
	dLng     float64
	rows     int
	cols     int
	buckets  [][]NodeID
	diagonal float64
}

// NewNodeIndex builds an index over every node of g with buckets of
// roughly cellMeters on a side (250 m is a good default for city
// networks).
func NewNodeIndex(g *Graph, cellMeters float64) *NodeIndex {
	if cellMeters <= 0 {
		cellMeters = 250
	}
	box := g.BBox().Pad(cellMeters)
	midLat := (box.MinLat + box.MaxLat) / 2
	idx := &NodeIndex{
		g:    g,
		box:  box,
		cell: cellMeters,
		dLat: cellMeters / geo.MetersPerDegreeLat(),
		dLng: cellMeters / geo.MetersPerDegreeLng(midLat),
	}
	idx.rows = int(math.Ceil((box.MaxLat-box.MinLat)/idx.dLat)) + 1
	idx.cols = int(math.Ceil((box.MaxLng-box.MinLng)/idx.dLng)) + 1
	idx.buckets = make([][]NodeID, idx.rows*idx.cols)
	for i := 0; i < g.NumNodes(); i++ {
		b := idx.bucketOf(g.Point(NodeID(i)))
		idx.buckets[b] = append(idx.buckets[b], NodeID(i))
	}
	idx.diagonal = math.Hypot(box.WidthMeters(), box.HeightMeters())
	return idx
}

func (idx *NodeIndex) bucketOf(p geo.Point) int {
	r := int((p.Lat - idx.box.MinLat) / idx.dLat)
	c := int((p.Lng - idx.box.MinLng) / idx.dLng)
	if r < 0 {
		r = 0
	}
	if r >= idx.rows {
		r = idx.rows - 1
	}
	if c < 0 {
		c = 0
	}
	if c >= idx.cols {
		c = idx.cols - 1
	}
	return r*idx.cols + c
}

// Nearest returns the node closest to p (by haversine) and its distance.
// It expands bucket rings until the best candidate provably beats any
// node in unexplored rings. A node geo.FlatBound puts beyond the best
// distance so far gets no haversine: it could not have won it. Returns
// InvalidNode only for an empty graph.
func (idx *NodeIndex) Nearest(p geo.Point) (NodeID, float64) {
	if idx.g.NumNodes() == 0 {
		return InvalidNode, math.Inf(1)
	}
	r0 := int((p.Lat - idx.box.MinLat) / idx.dLat)
	c0 := int((p.Lng - idx.box.MinLng) / idx.dLng)
	flat := geo.NewFlatBound(p, idx.box)
	best := InvalidNode
	bestD := math.Inf(1)
	maxRing := idx.rows
	if idx.cols > maxRing {
		maxRing = idx.cols
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Any node in an unexplored ring is at least (ring-1)*cell away,
		// so once bestD beats that bound we can stop.
		if best != InvalidNode && bestD < float64(ring-1)*idx.cell {
			break
		}
		for r := r0 - ring; r <= r0+ring; r++ {
			if r < 0 || r >= idx.rows {
				continue
			}
			for c := c0 - ring; c <= c0+ring; c++ {
				if c < 0 || c >= idx.cols {
					continue
				}
				// Only the ring border (interior already scanned).
				if ring > 0 && r != r0-ring && r != r0+ring && c != c0-ring && c != c0+ring {
					continue
				}
				for _, n := range idx.buckets[r*idx.cols+c] {
					q := idx.g.Point(n)
					if flat.Beyond(q, bestD) {
						continue
					}
					if d := geo.Haversine(p, q); d < bestD {
						bestD = d
						best = n
					}
				}
			}
		}
	}
	return best, bestD
}
