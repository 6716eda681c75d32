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
	if c.MinSeparation < 0 {
		return fmt.Errorf("landmark: MinSeparation must be >= 0, got %v", c.MinSeparation)
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
	for i := 0; i < g.NumNodes(); i++ {
		id := roadnet.NodeID(i)
		cands = append(cands, cand{node: id, score: scoreNode(g, id)})
	}
	// Decreasing score; ties broken by node ID for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].node < cands[j].node
	})

	// Greedy minimum-separation filter, accelerated with a bucket grid so
	// extraction is near-linear rather than quadratic.
	var kept []Landmark
	bucket := newSepGrid(g.BBox(), cfg.MinSeparation)
	for _, c := range cands {
		if cfg.MaxLandmarks > 0 && len(kept) >= cfg.MaxLandmarks {
			break
		}
		p := g.Point(c.node)
		if cfg.MinSeparation > 0 && bucket.hasWithin(p, cfg.MinSeparation) {
			continue
		}
		lm := Landmark{ID: len(kept), Node: c.node, Point: p, Score: c.score}
		kept = append(kept, lm)
		bucket.add(p)
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("landmark: extraction produced no landmarks")
	}
	return kept, nil
}

// scoreNode computes the deterministic importance of a node: total degree
// weighted by the speed class of incident roads. Highway/avenue
// junctions — the analogue of stations and major stops — score highest.
func scoreNode(g *roadnet.Graph, id roadnet.NodeID) float64 {
	var s float64
	classWeight := func(c roadnet.RoadClass) float64 {
		switch c {
		case roadnet.ClassHighway:
			return 3.0
		case roadnet.ClassAvenue:
			return 2.0
		case roadnet.ClassStreet:
			return 1.0
		default:
			return 0.5
		}
	}
	for _, e := range g.Out(id) {
		s += classWeight(e.Class)
	}
	for _, e := range g.In(id) {
		s += classWeight(e.Class)
	}
	return s
}

// sepGrid is a uniform bucket grid supporting "is any kept landmark
// within r of p" queries for the separation filter.
type sepGrid struct {
	box        geo.BBox
	cell       float64
	dLat, dLng float64
	rows, cols int
	buckets    map[int][]geo.Point
}

func newSepGrid(box geo.BBox, sep float64) *sepGrid {
	cell := sep
	if cell <= 0 {
		cell = 100
	}
	box = box.Pad(cell)
	midLat := (box.MinLat + box.MaxLat) / 2
	g := &sepGrid{
		box:     box,
		cell:    cell,
		dLat:    cell / geo.MetersPerDegreeLat(),
		dLng:    cell / geo.MetersPerDegreeLng(midLat),
		buckets: map[int][]geo.Point{},
	}
	g.rows = int((box.MaxLat-box.MinLat)/g.dLat) + 2
	g.cols = int((box.MaxLng-box.MinLng)/g.dLng) + 2
	return g
}

func (g *sepGrid) rc(p geo.Point) (int, int) {
	r := int((p.Lat - g.box.MinLat) / g.dLat)
	c := int((p.Lng - g.box.MinLng) / g.dLng)
	if r < 0 {
		r = 0
	}
	if r >= g.rows {
		r = g.rows - 1
	}
	if c < 0 {
		c = 0
	}
	if c >= g.cols {
		c = g.cols - 1
	}
	return r, c
}

func (g *sepGrid) add(p geo.Point) {
	r, c := g.rc(p)
	k := r*g.cols + c
	g.buckets[k] = append(g.buckets[k], p)
}

func (g *sepGrid) hasWithin(p geo.Point, radius float64) bool {
	r0, c0 := g.rc(p)
	span := int(radius/g.cell) + 1
	for r := r0 - span; r <= r0+span; r++ {
		if r < 0 || r >= g.rows {
			continue
		}
		for c := c0 - span; c <= c0+span; c++ {
			if c < 0 || c >= g.cols {
				continue
			}
			for _, q := range g.buckets[r*g.cols+c] {
				if geo.Haversine(p, q) < radius {
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

// Nodes extracts the road nodes of a landmark set.
func Nodes(lms []Landmark) []roadnet.NodeID {
	ns := make([]roadnet.NodeID, len(lms))
	for i, lm := range lms {
		ns[i] = lm.Node
	}
	return ns
}
