package roadnet

import (
	"fmt"
	"math/rand"

	"xar/internal/geo"
)

// The generated city is shaped like midtown Manhattan, the region of the
// paper's NY taxi evaluation: block sizes, one-way share and speed mix
// are fixed, only the lattice's size, its seed and the share of removed
// street edges vary.
const (
	// streetSpacing is the north–south block length in meters,
	// avenueSpacing the east–west block length.
	streetSpacing, avenueSpacing = 110.0, 270.0
	// jitter perturbs intersection geometry by up to this many meters so
	// the network is not perfectly regular.
	jitter = 8.0
	// avenueSpeed and streetSpeed are free-flow speeds in m/s (~32 and
	// ~23 km/h); the Broadway-like diagonal runs 15 % faster than an
	// avenue.
	avenueSpeed, streetSpeed = 9.0, 6.5
)

// origin is the lattice's south-west corner.
var origin = geo.Point{Lat: 40.700, Lng: -74.020}

// CityConfig parameterizes the synthetic Manhattan-style network
// generator: the lattice's size, the share of street edges removed, and
// the seed.
type CityConfig struct {
	// Rows is the number of east–west streets, Cols the number of
	// north–south avenues.
	Rows, Cols int
	// RemoveEdgeFrac removes this fraction of street edges at random
	// (parks, construction), creating detours. The generator keeps only
	// the largest connected component afterwards.
	RemoveEdgeFrac float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultCityConfig returns the configuration of a rows×cols lattice
// with 3 % of its street edges removed.
func DefaultCityConfig(rows, cols int, seed int64) CityConfig {
	return CityConfig{
		Rows:           rows,
		Cols:           cols,
		RemoveEdgeFrac: 0.03,
		Seed:           seed,
	}
}

// City is a generated road network plus the indices the rest of the
// system needs to use it.
type City struct {
	Graph  *Graph
	Index  *NodeIndex
	Config CityConfig
}

// GenerateCity builds a synthetic city network from cfg. The result is
// deterministic in cfg (including Seed). It returns an error for
// degenerate configurations.
func GenerateCity(cfg CityConfig) (*City, error) {
	if cfg.Rows < 2 || cfg.Cols < 2 {
		return nil, fmt.Errorf("roadnet: lattice must be at least 2x2, got %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.RemoveEdgeFrac < 0 || cfg.RemoveEdgeFrac > 0.5 {
		return nil, fmt.Errorf("roadnet: RemoveEdgeFrac %v out of [0, 0.5]", cfg.RemoveEdgeFrac)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Builder{}

	// Lay out intersections: row r, col c at origin + r*streetSpacing
	// north + c*avenueSpacing east, with jitter.
	nodeAt := make([]NodeID, cfg.Rows*cfg.Cols)
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			north := float64(r)*streetSpacing + (rng.Float64()*2-1)*jitter
			east := float64(c)*avenueSpacing + (rng.Float64()*2-1)*jitter
			p := geo.Destination(origin, 0, north)
			p = geo.Destination(p, 90, east)
			nodeAt[r*cfg.Cols+c] = g.AddNode(p)
		}
	}

	// Avenues (north–south, along columns): always two-way, faster.
	for c := 0; c < cfg.Cols; c++ {
		for r := 0; r+1 < cfg.Rows; r++ {
			a := nodeAt[r*cfg.Cols+c]
			b := nodeAt[(r+1)*cfg.Cols+c]
			if err := g.AddBidirectional(a, b, 0, avenueSpeed, ClassAvenue); err != nil {
				return nil, err
			}
		}
	}

	// Streets (east–west, along rows): alternate one-way, as in Manhattan,
	// which is what makes driving distance diverge from walking distance.
	// A random fraction is omitted entirely (parks, construction): since
	// every intersection sits on a two-way avenue, omitting street edges
	// cannot break strong connectivity, only lengthen detours.
	for r := 0; r < cfg.Rows; r++ {
		eastbound := r%2 == 0
		for c := 0; c+1 < cfg.Cols; c++ {
			a := nodeAt[r*cfg.Cols+c]
			b := nodeAt[r*cfg.Cols+c+1]
			if cfg.RemoveEdgeFrac > 0 && rng.Float64() < cfg.RemoveEdgeFrac {
				continue
			}
			if !eastbound {
				a, b = b, a
			}
			if err := g.AddEdge(a, b, 0, streetSpeed, ClassStreet); err != nil {
				return nil, err
			}
		}
	}

	// Broadway-like diagonal: a fast two-way boulevard cutting across the
	// lattice, connecting (0,0)-ish to (Rows-1, Cols-1)-ish.
	steps := min(cfg.Rows, cfg.Cols)
	prev := nodeAt[0]
	for s := 1; s < steps; s++ {
		r := s * (cfg.Rows - 1) / (steps - 1)
		c := s * (cfg.Cols - 1) / (steps - 1)
		cur := nodeAt[r*cfg.Cols+c]
		if cur != prev {
			if err := g.AddBidirectional(prev, cur, 0, avenueSpeed*1.15, ClassHighway); err != nil {
				return nil, err
			}
			prev = cur
		}
	}

	// Keep only the largest weakly-connected component so every node can
	// (weakly) reach every other; with one-ways, strong connectivity is
	// ensured by the two-way avenues forming a strongly connected spine.
	if comp := g.LargestComponent(); len(comp) < len(nodeAt) {
		g, _ = g.InducedSubgraph(comp)
	}
	graph := g.Build()
	return &City{
		Graph:  graph,
		Index:  NewNodeIndex(graph, 250),
		Config: cfg,
	}, nil
}

// SnapToNode returns the road node nearest to p and the straight-line
// snap distance.
func (c *City) SnapToNode(p geo.Point) (NodeID, float64) {
	return c.Index.Nearest(p)
}

// RandomPoint returns a uniformly random point within the city's bounding
// box, drawn from rng. Used by tests and workload generation.
func (c *City) RandomPoint(rng *rand.Rand) geo.Point {
	box := c.Graph.BBox()
	return geo.Point{
		Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
		Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
	}
}
