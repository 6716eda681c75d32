// Package landmark implements landmark extraction and filtering — the
// middle tier of the XAR three-tiered region discretization
// (Definition 2 of the paper).
//
// The paper queries Google Places for ~30,000 points of interest and
// prunes them to ~16,000 significant ones (bus stops, stations, big
// stores). This reproduction extracts landmarks from the road network
// itself: each intersection receives a deterministic importance score
// from its connectivity and road classes, and a minimum-separation filter
// then enforces the paper's requirement that no two landmarks are closer
// than f.
package landmark

import (
	"fmt"
	"math"
	"sort"

	"xar/internal/geo"
	"xar/internal/roadnet"
)

// Landmark is a filtered point of interest. ID is dense (the i-th
// landmark of a set has ID i), and the paper's tie-breaking rule —
// "choose the one with the lowest number in an ordering imposed on the
// set of landmarks" — uses exactly this ID order.
type Landmark struct {
	ID    int
	Node  roadnet.NodeID // road node the landmark sits on
	Point geo.Point
	Score float64 // extraction importance (higher = extracted earlier)
}

// Config controls extraction.
type Config struct {
	// MinSeparation is the paper's f parameter: no two landmarks may be
	// within f meters (straight-line) of each other.
	MinSeparation float64
	// MaxLandmarks caps the number extracted (0 = no cap). The paper
	// prunes 30k candidates to 16k; the cap plays that role.
	MaxLandmarks int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !(c.MinSeparation >= 0) || math.IsInf(c.MinSeparation, 1) {
		return fmt.Errorf("landmark: MinSeparation must be finite and >= 0, got %v", c.MinSeparation)
	}
	if c.MaxLandmarks < 0 {
		return fmt.Errorf("landmark: MaxLandmarks must be >= 0, got %v", c.MaxLandmarks)
	}
	return nil
}

// Extract scores every node of the graph and returns the filtered
// landmark set: a maximal set of nodes, in decreasing score order, such
// that every pair is at least cfg.MinSeparation apart. The result is
// deterministic for a given graph and config.
func Extract(g *roadnet.Graph, cfg Config) ([]Landmark, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("landmark: empty graph")
	}

	type cand struct {
		node  roadnet.NodeID
		score float64
	}
	cands := make([]cand, 0, g.NumNodes())
	for i, s := range scores(g) {
		cands = append(cands, cand{node: roadnet.NodeID(i), score: s})
	}
	// Decreasing score; ties broken by node ID for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].node < cands[j].node
	})

	// Greedy minimum-separation filter, accelerated with a bucket grid
	// over the kept landmarks, so extraction is near-linear rather than
	// quadratic. Its cells are f on a side, and no smaller than 100 m: a
	// cell count that grows as 1/f² would cost more than the filter.
	var kept []Landmark
	cell := max(cfg.MinSeparation, 100)
	bucket := geo.NewBuckets(g.BBox().Pad(cell), cell, nil)
	for _, c := range cands {
		if cfg.MaxLandmarks > 0 && len(kept) >= cfg.MaxLandmarks {
			break
		}
		p := g.Point(c.node)
		if cfg.MinSeparation > 0 && hasWithin(bucket, kept, p, cfg.MinSeparation) {
			continue
		}
		bucket.Add(int32(len(kept)), p)
		kept = append(kept, Landmark{ID: len(kept), Node: c.node, Point: p, Score: c.score})
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("landmark: extraction produced no landmarks")
	}
	return kept, nil
}

// classWeight is a road class's weight in a node's score; a class past
// these weighs ½.
var classWeight = [...]float64{roadnet.ClassHighway: 3, roadnet.ClassAvenue: 2, roadnet.ClassStreet: 1}

// scores computes the deterministic importance of every node: its total
// degree, each arc in or out weighted by its road class, read from the
// forward rows with each arc counted at both ends. Highway/avenue
// junctions — the analogue of stations and major stops — score highest.
// The weights are multiples of ½, so a sum is exact in any order.
func scores(g *roadnet.Graph) []float64 {
	s := make([]float64, g.NumNodes())
	for v := range s {
		for e, hi := g.Out(roadnet.NodeID(v)); e < hi; e++ {
			a, w := g.Arc(e), 0.5
			if int(a.Class) < len(classWeight) {
				w = classWeight[a.Class]
			}
			s[v] += w
			s[a.To] += w
		}
	}
	return s
}

// hasWithin reports whether a kept landmark lies closer than radius to p.
func hasWithin(b *geo.Buckets, kept []Landmark, p geo.Point, radius float64) bool {
	r0, r1, c0, c1 := b.Square(p, radius)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, i := range b.Bucket(r, c) {
				if geo.Haversine(p, kept[i].Point) < radius {
					return true
				}
			}
		}
	}
	return false
}

// Points extracts the geometry of a landmark set.
func Points(lms []Landmark) []geo.Point {
	pts := make([]geo.Point, len(lms))
	for i, lm := range lms {
		pts[i] = lm.Point
	}
	return pts
}
