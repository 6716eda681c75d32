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
	g *Graph
	b *geo.Buckets
}

// NewNodeIndex builds an index over every node of g with buckets of
// roughly cellMeters on a side (250 m is a good default for city
// networks).
func NewNodeIndex(g *Graph, cellMeters float64) *NodeIndex {
	if cellMeters <= 0 {
		cellMeters = 250
	}
	return &NodeIndex{g: g, b: geo.NewBuckets(g.BBox().Pad(cellMeters), cellMeters, g.pts)}
}

// Nearest returns the node closest to p (by haversine) and its distance.
// It expands bucket rings around p's cell until the best candidate
// provably beats any node in unexplored rings; among nodes at the same
// distance the first scanned wins. A node geo.FlatBound puts beyond the
// best distance so far gets no haversine: it could not have won it.
// The walk stops after max(Rows, Cols) rings of the bucket grid around
// p's own cell, which reach every node from anywhere inside the grid's
// box; a point more than that many rings outside it gets (InvalidNode,
// +Inf), as does every point on an empty graph.
func (idx *NodeIndex) Nearest(p geo.Point) (NodeID, float64) {
	if idx.g.NumNodes() == 0 {
		return InvalidNode, math.Inf(1)
	}
	r0, c0 := idx.b.CellOf(p)
	flat := geo.NewFlatBound(p, idx.b.Box)
	best := InvalidNode
	bestD := math.Inf(1)
	visit := func(bucket []int32) {
		for _, n := range bucket {
			q := idx.g.pts[n]
			if flat.Beyond(q, bestD) {
				continue
			}
			if d := geo.Haversine(p, q); d < bestD {
				bestD = d
				best = NodeID(n)
			}
		}
	}
	for ring := 0; ring <= max(idx.b.Rows, idx.b.Cols); ring++ {
		// Any node in an unexplored ring is at least (ring-1)*cell away,
		// so once bestD beats that bound we can stop.
		if best != InvalidNode && bestD < float64(ring-1)*idx.b.Cell {
			break
		}
		idx.b.Ring(r0, c0, ring, visit)
	}
	return best, bestD
}
