// Package roadnet provides the road-network substrate of the XAR system:
// a directed graph with geometry, shortest-path searches (Dijkstra,
// bounded Dijkstra, A*), a nearest-node spatial index, a deterministic
// synthetic Manhattan-style city generator, and a time-of-day travel-time
// model.
//
// Every distance the XAR discretization and index rely on — grid→landmark
// driving distance, landmark–landmark distance, route lengths, detours —
// is a shortest-path quantity on this graph. The paper obtains these from
// OpenStreetMap / OpenTripPlanner; here the graph is synthetic but
// preserves the properties the algorithms depend on: driving distance ≥
// straight-line distance, one-way streets making driving and walking
// distances diverge, and heterogeneous road speeds.
package roadnet

import (
	"fmt"
	"math"
	"slices"

	"xar/internal/geo"
	"xar/internal/memsize"
)

// NodeID indexes a node (way-point) in a Graph. IDs are dense: the i-th
// added node has ID i.
type NodeID int32

// InvalidNode marks "no node".
const InvalidNode NodeID = -1

// RoadClass describes an edge's role in the network; it drives speed
// assignment in the generator and importance scoring in landmark
// extraction.
type RoadClass uint8

// Road classes, from fastest to slowest.
const (
	ClassHighway RoadClass = iota
	ClassAvenue
	ClassStreet
	ClassLane
)

func (c RoadClass) String() string {
	switch c {
	case ClassHighway:
		return "highway"
	case ClassAvenue:
		return "avenue"
	case ClassStreet:
		return "street"
	case ClassLane:
		return "lane"
	default:
		return fmt.Sprintf("roadclass(%d)", uint8(c))
	}
}

// Edge is a directed road segment.
type Edge struct {
	To     NodeID
	Length float64 // meters
	Speed  float64 // free-flow speed, m/s
	Class  RoadClass
}

// Graph is a directed road network. The zero value is empty and ready to
// use. Graph is not safe for concurrent mutation; once built it is
// read-only and safe for concurrent searches (each search carries its own
// scratch state).
type Graph struct {
	pts     []geo.Point
	xyz     [][3]float64 // pts on the sphere, Cartesian metres; see chord
	out     [][]Edge
	in      [][]Edge // reverse adjacency, for searches toward a target
	edgeCnt int
}

// MeasureMem implements memsize.Measurer. The graph is immutable after
// construction, so the walk takes no locks.
func (g *Graph) MeasureMem(a *memsize.Accumulator) {
	if g == nil {
		return
	}
	a.Add(g)
}

// AddNode inserts a node at p and returns its ID.
func (g *Graph) AddNode(p geo.Point) NodeID {
	id := NodeID(len(g.pts))
	g.pts = append(g.pts, p)
	lat, lng := p.Lat*math.Pi/180, p.Lng*math.Pi/180
	r := geo.EarthRadiusMeters * math.Cos(lat) // of the parallel
	g.xyz = append(g.xyz, [3]float64{r * math.Cos(lng), r * math.Sin(lng), geo.EarthRadiusMeters * math.Sin(lat)})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.edgeCnt }

// Point returns the geometry of node id.
func (g *Graph) Point(id NodeID) geo.Point { return g.pts[id] }

// Out returns the outgoing edges of node id. Callers must not mutate the
// returned slice.
func (g *Graph) Out(id NodeID) []Edge { return g.out[id] }

// In returns the incoming edges of node id, expressed as Edge values whose
// To field holds the *source* of the original edge.
func (g *Graph) In(id NodeID) []Edge { return g.in[id] }

// chordSlack is the relative rounding tolerance of the chord invariant:
// AddEdge accepts a length down to chord·(1−chordSlack), and chordBound
// shaves the chord by twice that, so neither a great-circle length that
// rounds a hair under the chord of the stored coordinates nor the
// rounding of a long path sum can make the heuristic inadmissible.
const chordSlack = 1e-9

// chord returns the straight-line (through the Earth) distance in meters
// between two nodes: no trigonometry, at most the great-circle arc, and a
// metric on the stored coordinates.
func (g *Graph) chord(a, b NodeID) float64 {
	p, q := &g.xyz[a], &g.xyz[b]
	dx, dy, dz := p[0]-q[0], p[1]-q[1], p[2]-q[2]
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// chordBound is the plain A* heuristic: the chord from v to t, shaved.
// Every edge is at least (1−chordSlack) of its own chord and the chord
// is a metric, so no path from v to t is shorter; it is 0 at t.
func (g *Graph) chordBound(v, t NodeID) float64 {
	return g.chord(v, t) * (1 - 2*chordSlack)
}

// AddEdge inserts a directed edge from → to. A non-positive length is
// replaced by the haversine distance between the endpoints; an explicit
// one shorter than the chord between them is rejected (it would make the
// A* and ALT searches inexact); speeds must be positive. It returns an
// error so network-building bugs surface at construction, not as corrupt
// searches later.
func (g *Graph) AddEdge(from, to NodeID, length, speed float64, class RoadClass) error {
	if from < 0 || int(from) >= len(g.pts) || to < 0 || int(to) >= len(g.pts) {
		return fmt.Errorf("roadnet: edge endpoints %d→%d out of range [0,%d)", from, to, len(g.pts))
	}
	if from == to {
		return fmt.Errorf("roadnet: self-loop at node %d", from)
	}
	if speed <= 0 || math.IsNaN(speed) {
		return fmt.Errorf("roadnet: non-positive speed %v on edge %d→%d", speed, from, to)
	}
	chord := g.chord(from, to)
	if length <= 0 {
		length = geo.Haversine(g.pts[from], g.pts[to])
		if length <= 0 {
			length = 1 // coincident nodes: keep the metric positive
		}
		// The arc can round under the chord only on a sub-meter edge.
		length = max(length, chord*(1-chordSlack))
	} else if !(length >= chord*(1-chordSlack)) {
		return fmt.Errorf("roadnet: edge %d→%d length %v is shorter than the %v m straight line between its endpoints", from, to, length, chord)
	}
	g.out[from] = append(g.out[from], Edge{To: to, Length: length, Speed: speed, Class: class})
	g.in[to] = append(g.in[to], Edge{To: from, Length: length, Speed: speed, Class: class})
	g.edgeCnt++
	return nil
}

// AddBidirectional inserts edges in both directions with the same
// attributes.
func (g *Graph) AddBidirectional(a, b NodeID, length, speed float64, class RoadClass) error {
	if err := g.AddEdge(a, b, length, speed, class); err != nil {
		return err
	}
	return g.AddEdge(b, a, length, speed, class)
}

// BBox returns the bounding box of all node geometry.
func (g *Graph) BBox() geo.BBox {
	return geo.NewBBox(g.pts...)
}

// PathLength returns the summed edge length of a node path, looking up the
// actual edge between consecutive nodes (shortest parallel edge if there
// are several). It returns an error if two consecutive nodes are not
// adjacent — a corrupted route.
func (g *Graph) PathLength(path []NodeID) (float64, error) {
	var total float64
	for i := 1; i < len(path); i++ {
		l, ok := g.edgeLength(path[i-1], path[i])
		if !ok {
			return 0, fmt.Errorf("roadnet: path step %d: no edge %d→%d", i, path[i-1], path[i])
		}
		total += l
	}
	return total, nil
}

// Splice says how a route replaces Old: the two share Old[:Part+1], the
// new route's stretch from Part to NewRejoin replaces Old's from Part to
// OldRejoin, and from there on they share Old[OldRejoin:], the new
// route's [NewRejoin:]. The zero Splice names no old route.
type Splice struct {
	Old                  []NodeID
	Part                 int
	OldRejoin, NewRejoin int
}

// RouteWalk is what one walk of a route finds: its length, the old
// route's when the walk was given a splice, and the arrival time at every
// node.
type RouteWalk struct {
	Len, OldLen float64
	ETA         []float64
}

// WalkRoute walks route once, leaving its first node at start. Each hop's
// out-edges are scanned once for the shortest parallel edge's length,
// summed left to right as PathLength sums them, and the fastest one's
// free-flow time, as TravelTime counts it, summed into the ETAs. Given a
// splice it sums sp.Old in the same order: the prefix and the suffix off
// the hops the routes share, the replaced stretch hop by hop, so OldLen
// is PathLength(sp.Old) bit for bit. A hop of either route that is not an
// edge is an error, and so is a splice whose prefix or suffix the routes
// do not share, or an empty route.
func (g *Graph) WalkRoute(route []NodeID, start float64, sp Splice) (RouteWalk, error) {
	n := len(route)
	if n == 0 {
		return RouteWalk{}, fmt.Errorf("roadnet: empty route")
	}
	part, rejoin := n-1, n-1 // without an old route every hop is shared
	if sp.Old != nil {
		if err := sp.check(route); err != nil {
			return RouteWalk{}, err
		}
		part, rejoin = sp.Part, sp.NewRejoin
	}
	w := RouteWalk{ETA: make([]float64, n)}
	w.ETA[0] = start
	var err error
	for i := 1; i < n; i++ {
		if i == part+1 {
			if w.OldLen, err = g.stretchLen(sp, w.Len); err != nil {
				return RouteWalk{}, err
			}
		}
		l, t, ok := g.hop(route[i-1], route[i])
		if !ok {
			return RouteWalk{}, fmt.Errorf("roadnet: path step %d: no edge %d→%d", i, route[i-1], route[i])
		}
		w.Len += l
		w.ETA[i] = w.ETA[i-1] + t
		if i > rejoin {
			w.OldLen += l
		}
	}
	if sp.Old != nil && part == n-1 {
		if w.OldLen, err = g.stretchLen(sp, w.Len); err != nil {
			return RouteWalk{}, err
		}
	}
	return w, nil
}

// check reports a splice whose indices fall outside its routes or whose
// prefix or suffix the routes do not share.
func (sp Splice) check(route []NodeID) error {
	if sp.Part < 0 || sp.Part > sp.OldRejoin || sp.OldRejoin >= len(sp.Old) || sp.Part > sp.NewRejoin || sp.NewRejoin >= len(route) {
		return fmt.Errorf("roadnet: splice parting at %d and rejoining at %d and %d does not fit routes of %d and %d nodes", sp.Part, sp.OldRejoin, sp.NewRejoin, len(sp.Old), len(route))
	}
	if !slices.Equal(sp.Old[:sp.Part+1], route[:sp.Part+1]) || !slices.Equal(sp.Old[sp.OldRejoin:], route[sp.NewRejoin:]) {
		return fmt.Errorf("roadnet: the routes do not share the splice's prefix up to %d and suffix from %d and %d", sp.Part, sp.OldRejoin, sp.NewRejoin)
	}
	return nil
}

// stretchLen adds the hops of sp.Old's replaced stretch to prefix, the
// length of the prefix the routes share.
func (g *Graph) stretchLen(sp Splice, prefix float64) (float64, error) {
	for j := sp.Part + 1; j <= sp.OldRejoin; j++ {
		l, ok := g.edgeLength(sp.Old[j-1], sp.Old[j])
		if !ok {
			return 0, fmt.Errorf("roadnet: old path step %d: no edge %d→%d", j, sp.Old[j-1], sp.Old[j])
		}
		prefix += l
	}
	return prefix, nil
}

// hop returns, from one scan of a's out-edges, the length of the
// shortest edge to b (edgeLength's), the free-flow time of the fastest
// (stepTime's), and whether there is one.
func (g *Graph) hop(a, b NodeID) (length, time float64, ok bool) {
	length, time = math.Inf(1), math.Inf(1)
	for _, e := range g.out[a] {
		if e.To == b {
			length, time, ok = min(length, e.Length), min(time, e.Length/e.Speed), true
		}
	}
	return length, time, ok
}

func (g *Graph) edgeLength(from, to NodeID) (float64, bool) {
	best := math.Inf(1)
	found := false
	for _, e := range g.out[from] {
		if e.To == to && e.Length < best {
			best = e.Length
			found = true
		}
	}
	return best, found
}

// LargestComponent returns the node set of the largest weakly-connected
// component. The synthetic generator uses it to discard isolated islands
// created by random edge removal, and loaders can use it to sanitize real
// data.
func (g *Graph) LargestComponent() []NodeID {
	n := len(g.pts)
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var best []NodeID
	stack := make([]NodeID, 0, 64)
	var cur int32
	for start := 0; start < n; start++ {
		if comp[start] != -1 {
			continue
		}
		var members []NodeID
		stack = append(stack[:0], NodeID(start))
		comp[start] = cur
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, v)
			for _, e := range g.out[v] {
				if comp[e.To] == -1 {
					comp[e.To] = cur
					stack = append(stack, e.To)
				}
			}
			for _, e := range g.in[v] {
				if comp[e.To] == -1 {
					comp[e.To] = cur
					stack = append(stack, e.To)
				}
			}
		}
		if len(members) > len(best) {
			best = members
		}
		cur++
	}
	return best
}

// InducedSubgraph returns a new graph containing only the given nodes and
// the edges among them, together with the mapping old→new node IDs
// (InvalidNode for dropped nodes).
func (g *Graph) InducedSubgraph(keep []NodeID) (*Graph, []NodeID) {
	remap := make([]NodeID, len(g.pts))
	for i := range remap {
		remap[i] = InvalidNode
	}
	sub := &Graph{}
	for _, old := range keep {
		remap[old] = sub.AddNode(g.pts[old])
	}
	for _, old := range keep {
		for _, e := range g.out[old] {
			if remap[e.To] == InvalidNode {
				continue
			}
			// Endpoints validated by construction; error impossible.
			_ = sub.AddEdge(remap[old], remap[e.To], e.Length, e.Speed, e.Class)
		}
	}
	return sub, remap
}
