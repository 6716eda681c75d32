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

// Edge is a directed road segment, as AddEdge takes it and Arc gives it.
type Edge struct {
	To     NodeID
	Length float64 // meters
	Speed  float64 // free-flow speed, m/s
	Class  RoadClass
}

// rows is one direction of a graph's arcs in compressed rows: the arcs
// leaving v are head[off[v]:off[v+1]], their lengths at the same places
// of length, 12 bytes an arc, and every search kernel reads them.
type rows struct {
	off    []int32
	head   []NodeID
	length []float64
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

// Graph is a directed road network, laid out once by a Builder and
// read-only after, so searches share it. Its arcs are stored once, as
// forward rows with each arc's speed and class beside; a search over the
// reverse graph derives reverse rows (reversed). The zero value is the
// empty graph.
type Graph struct {
	pts []geo.Point
	xyz [][3]float64 // pts on the sphere, Cartesian metres; see chord
	rows
	speed []float64
	class []RoadClass
}

// MeasureMem implements memsize.Measurer. The graph is immutable after
// construction, so the walk takes no locks.
func (g *Graph) MeasureMem(a *memsize.Accumulator) {
	if g == nil {
		return
	}
	a.Add(g)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.head) }

// Point returns the geometry of node id.
func (g *Graph) Point(id NodeID) geo.Point { return g.pts[id] }

// Out returns the arcs leaving node id as a range of arc indices: Arc(e)
// for lo ≤ e < hi, in the order they were added.
func (g *Graph) Out(id NodeID) (lo, hi int32) { return g.off[id], g.off[id+1] }

// Arc returns arc e, its head in To.
func (g *Graph) Arc(e int32) Edge {
	return Edge{To: g.head[e], Length: g.length[e], Speed: g.speed[e], Class: g.class[e]}
}

// reversed returns r turned around: the arcs entering v, each with its
// source as head, in the order of their sources and, from one source, of
// its row. The bucket parameters depend only on the lengths and are r's.
func (r *rows) reversed() *rows {
	n := len(r.off) - 1
	src := make([]NodeID, len(r.head))
	for v := range n {
		for e := r.off[v]; e < r.off[v+1]; e++ {
			src[e] = NodeID(v)
		}
	}
	t := *r
	var order []int32
	t.off, order = group(n, r.head)
	t.head, t.length = make([]NodeID, len(order)), make([]float64, len(order))
	for i, e := range order {
		t.head[i], t.length[i] = src[e], r.length[e]
	}
	return &t
}

// group sorts the items 0 … len(key)−1 by key into n rows, stably: row v
// is order[off[v]:off[v+1]], the items whose key is v in their own order.
func group(n int, key []NodeID) (off, order []int32) {
	off = make([]int32, n+1)
	for _, k := range key {
		off[k+1]++
	}
	for v := range n {
		off[v+1] += off[v]
	}
	next := slices.Clone(off[:n])
	order = make([]int32, len(key))
	for i, k := range key {
		order[next[k]] = int32(i)
		next[k]++
	}
	return off, order
}

// Builder lays out a Graph: nodes and arcs are added one at a time, each
// arc checked as it comes, and Build stores the arcs once, in compressed
// rows. The zero value is empty and ready to use.
type Builder struct {
	g    Graph    // the nodes so far
	from []NodeID // the arcs' sources, in the order they were added
	arcs []Edge
}

// AddNode inserts a node at p and returns its ID. IDs are dense: the i-th
// node added has ID i.
func (b *Builder) AddNode(p geo.Point) NodeID {
	id := NodeID(len(b.g.pts))
	b.g.pts = append(b.g.pts, p)
	lat, lng := p.Lat*math.Pi/180, p.Lng*math.Pi/180
	r := geo.EarthRadiusMeters * math.Cos(lat) // of the parallel
	b.g.xyz = append(b.g.xyz, [3]float64{r * math.Cos(lng), r * math.Sin(lng), geo.EarthRadiusMeters * math.Sin(lat)})
	return id
}

// Build lays the arcs out in compressed rows, each source's in the order
// they were added, and returns the graph. The graph shares nothing with
// b, which may go on growing and build again.
func (b *Builder) Build() *Graph {
	g := Graph{pts: slices.Clone(b.g.pts), xyz: slices.Clone(b.g.xyz)}
	var order []int32
	g.off, order = group(len(g.pts), b.from)
	m := len(order)
	g.head, g.length, g.speed, g.class = make([]NodeID, m), make([]float64, m), make([]float64, m), make([]RoadClass, m)
	for e, i := range order {
		a := &b.arcs[i]
		g.head[e], g.length[e], g.speed[e], g.class[e] = a.To, a.Length, a.Speed, a.Class
	}
	g.setBuckets()
	return &g
}

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
func (b *Builder) AddEdge(from, to NodeID, length, speed float64, class RoadClass) error {
	g := &b.g
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
	b.from = append(b.from, from)
	b.arcs = append(b.arcs, Edge{To: to, Length: length, Speed: speed, Class: class})
	return nil
}

// AddBidirectional inserts edges in both directions with the same
// attributes.
func (b *Builder) AddBidirectional(u, v NodeID, length, speed float64, class RoadClass) error {
	if err := b.AddEdge(u, v, length, speed, class); err != nil {
		return err
	}
	return b.AddEdge(v, u, length, speed, class)
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
		l, _, ok := g.hop(path[i-1], path[i])
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
		l, _, ok := g.hop(sp.Old[j-1], sp.Old[j])
		if !ok {
			return 0, fmt.Errorf("roadnet: old path step %d: no edge %d→%d", j, sp.Old[j-1], sp.Old[j])
		}
		prefix += l
	}
	return prefix, nil
}

// hop returns, from one scan of a's out-arcs, the length of the
// shortest arc to b, the free-flow time of the fastest, and whether there
// is one.
func (g *Graph) hop(a, b NodeID) (length, time float64, ok bool) {
	length, time = math.Inf(1), math.Inf(1)
	for e := g.off[a]; e < g.off[a+1]; e++ {
		if g.head[e] == b {
			length, time, ok = min(length, g.length[e]), min(time, g.length[e]/g.speed[e]), true
		}
	}
	return length, time, ok
}

// LargestComponent returns the node set of the largest weakly-connected
// component in the order a depth-first walk visits it, each node's
// out-arcs before its in-arcs, in the order added. The generator uses it
// to discard islands that random edge removal leaves.
func (b *Builder) LargestComponent() []NodeID {
	n, m := len(b.g.pts), len(b.arcs)
	// Item i < m is arc i at its source, item m+i the arc at its head: row
	// v of the grouped items is v's out-arcs, then its in-arcs.
	ends := make([]NodeID, 2*m)
	for i := range b.arcs {
		ends[i], ends[m+i] = b.from[i], b.arcs[i].To
	}
	off, order := group(n, ends)
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
			for _, i := range order[off[v]:off[v+1]] {
				if u := ends[(int(i)+m)%(2*m)]; comp[u] == -1 {
					comp[u] = cur
					stack = append(stack, u)
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

// InducedSubgraph returns a builder of only the given nodes, in the order
// given, and the arcs among them, each source's in the order added, and
// the mapping old→new node IDs (InvalidNode for dropped nodes).
func (b *Builder) InducedSubgraph(keep []NodeID) (*Builder, []NodeID) {
	remap := make([]NodeID, len(b.g.pts))
	for i := range remap {
		remap[i] = InvalidNode
	}
	sub := &Builder{}
	for _, old := range keep {
		remap[old] = sub.AddNode(b.g.pts[old])
	}
	off, order := group(len(b.g.pts), b.from)
	for _, old := range keep {
		for _, i := range order[off[old]:off[old+1]] {
			if e := b.arcs[i]; remap[e.To] != InvalidNode {
				e.To = remap[e.To]
				sub.from, sub.arcs = append(sub.from, remap[old]), append(sub.arcs, e)
			}
		}
	}
	return sub, remap
}
