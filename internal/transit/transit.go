// Package transit provides the public-transport substrate that the XAR
// paper's Figure 6 experiment and the multi-modal trip planner (§IX)
// depend on. The paper uses the NYC GTFS feed served through
// OpenTripPlanner; this reproduction models an equivalent frequency-based
// network: stops with geometry, routes as ordered stop sequences with
// per-leg travel times, fixed headways and service windows — the subset
// of GTFS semantics a trip planner actually consumes.
package transit

import (
	"fmt"
	"math"

	"xar/internal/geo"
)

// StopID indexes a stop in a Network.
type StopID int32

// InvalidStop marks "no stop".
const InvalidStop StopID = -1

// Stop is a transit stop.
type Stop struct {
	ID    StopID
	Name  string
	Point geo.Point
}

// Mode is the vehicle type of a route.
type Mode uint8

// Transit modes.
const (
	ModeSubway Mode = iota
	ModeBus
)

func (m Mode) String() string {
	switch m {
	case ModeSubway:
		return "subway"
	case ModeBus:
		return "bus"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Route is a one-directional transit line: an ordered stop sequence with
// travel times, a fixed headway and a service window. Bidirectional lines
// are two Route values.
type Route struct {
	ID      int
	Name    string
	Mode    Mode
	Stops   []StopID
	Headway float64 // seconds between departures from the first stop
	First   float64 // first departure from the first stop (sec of day)
	Last    float64 // last departure from the first stop
	Dwell   float64 // dwell time per intermediate stop

	legTime []float64 // travel time between consecutive stops
	cum     []float64 // cumulative offset of each stop from the first
}

// LegTime returns the in-vehicle time from stop index i to i+1.
func (r *Route) LegTime(i int) float64 { return r.legTime[i] }

// Offset returns the schedule offset of stop index i relative to a
// departure from the first stop.
func (r *Route) Offset(i int) float64 { return r.cum[i] }

// NextDeparture returns the first vehicle departure from stop index i at
// or after time t, or ok=false when service has ended for the day.
func (r *Route) NextDeparture(i int, t float64) (depart float64, ok bool) {
	if i < 0 || i >= len(r.Stops)-1 {
		return 0, false
	}
	base := r.First + r.cum[i]
	if t <= base {
		return base, true
	}
	k := math.Ceil((t - base) / r.Headway)
	dep := base + k*r.Headway
	if dep-r.cum[i] > r.Last {
		return 0, false
	}
	return dep, true
}

// routeStop locates a stop inside a route.
type routeStop struct {
	Route int
	Idx   int
}

// Network is an immutable transit network.
type Network struct {
	Stops  []Stop
	Routes []Route

	byStop  [][]routeStop // stop → occurrences in routes
	buckets *geo.Buckets  // the stops, 500 m cells
}

// NewNetwork assembles a network and validates referential integrity.
func NewNetwork(stops []Stop, routes []Route) (*Network, error) {
	n := &Network{Stops: stops, Routes: routes}
	n.byStop = make([][]routeStop, len(stops))
	for ri := range routes {
		r := &routes[ri]
		if len(r.Stops) < 2 {
			return nil, fmt.Errorf("transit: route %q has %d stops", r.Name, len(r.Stops))
		}
		if r.Headway <= 0 {
			return nil, fmt.Errorf("transit: route %q has non-positive headway", r.Name)
		}
		if r.Last < r.First {
			return nil, fmt.Errorf("transit: route %q has inverted service window", r.Name)
		}
		if len(r.legTime) != len(r.Stops)-1 {
			return nil, fmt.Errorf("transit: route %q has %d leg times for %d stops", r.Name, len(r.legTime), len(r.Stops))
		}
		for i, s := range r.Stops {
			if s < 0 || int(s) >= len(stops) {
				return nil, fmt.Errorf("transit: route %q references unknown stop %d", r.Name, s)
			}
			n.byStop[s] = append(n.byStop[s], routeStop{Route: ri, Idx: i})
		}
		for i, lt := range r.legTime {
			if lt <= 0 {
				return nil, fmt.Errorf("transit: route %q leg %d has non-positive time", r.Name, i)
			}
		}
	}
	pts := make([]geo.Point, len(stops))
	for i, s := range stops {
		pts[i] = s.Point
	}
	if len(pts) > 0 {
		n.buckets = geo.NewBuckets(geo.NewBBox(pts...).Pad(2000), 500, pts)
	}
	return n, nil
}

// RoutesAt returns the (route, stop-index) occurrences at a stop. Callers
// must not mutate the result.
func (n *Network) RoutesAt(s StopID) []routeStop { return n.byStop[s] }

// RouteOf dereferences an occurrence.
func (n *Network) RouteOf(rs routeStop) *Route { return &n.Routes[rs.Route] }

// StopsNear appends to dst the stops within radius meters of p, with
// their straight-line distances, and returns the extended slices.
func (n *Network) StopsNear(p geo.Point, radius float64, dst []StopID, dist []float64) ([]StopID, []float64) {
	if n.buckets == nil || radius < 0 {
		return dst, dist
	}
	r0, r1, c0, c1 := n.buckets.Square(p, radius)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, i := range n.buckets.Bucket(r, c) {
				if d := geo.Haversine(p, n.Stops[i].Point); d <= radius {
					dst = append(dst, StopID(i))
					dist = append(dist, d)
				}
			}
		}
	}
	return dst, dist
}

// NewRoute is the constructor used by generators and loaders: it derives
// per-leg travel times from stop geometry and an average speed (m/s).
func NewRoute(id int, name string, mode Mode, stopIDs []StopID, stops []Stop, speed, headway, first, last, dwell float64) (Route, error) {
	if speed <= 0 {
		return Route{}, fmt.Errorf("transit: route %q speed must be positive", name)
	}
	r := Route{
		ID: id, Name: name, Mode: mode, Stops: stopIDs,
		Headway: headway, First: first, Last: last, Dwell: dwell,
	}
	r.legTime = make([]float64, len(stopIDs)-1)
	r.cum = make([]float64, len(stopIDs))
	for i := 0; i+1 < len(stopIDs); i++ {
		d := geo.Haversine(stops[stopIDs[i]].Point, stops[stopIDs[i+1]].Point)
		r.legTime[i] = d/speed + dwell
		r.cum[i+1] = r.cum[i] + r.legTime[i]
	}
	return r, nil
}
