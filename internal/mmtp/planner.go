// Package mmtp implements the multi-modal trip planner of §IX: a
// time-dependent earliest-arrival router over the transit network plus
// walking, producing itineraries with walk/wait/ride legs — the role
// OpenTripPlanner plays in the paper — and the two systematic modes of
// integrating XAR ride sharing with it:
//
//   - Aider mode: replace an infeasible segment (too much walking or
//     waiting) of a transit plan with a shared ride;
//   - Enhancer mode: try shared rides over the C(k+1,2) combinations of
//     the plan's hop points to reduce hops and travel time.
package mmtp

import (
	"container/heap"
	"fmt"
	"math"

	"xar/internal/geo"
	"xar/internal/transit"
)

// WalkSpeed is every traveller's walking speed in m/s: the planner's
// access, egress, transfer and direct walks, and the walk times the
// mode comparisons compose.
const WalkSpeed = 1.3

// The planner's urban settings.
const (
	// maxWalkToStop bounds the access and egress walk radius in meters.
	maxWalkToStop = 1200.0
	// transferRadius bounds stop-to-stop walking transfers in meters.
	transferRadius = 450.0
	// boardMargin is the minimum seconds between arriving at a stop and
	// boarding a vehicle.
	boardMargin = 30.0
	// maxDirectWalk: when the whole trip is shorter than this many
	// meters, a pure walking itinerary competes with transit.
	maxDirectWalk = 2500.0
)

// LegMode is the mode of one itinerary leg.
type LegMode uint8

// Leg modes.
const (
	LegWalk LegMode = iota
	LegTransit
	LegRideShare
)

func (m LegMode) String() string {
	switch m {
	case LegWalk:
		return "walk"
	case LegTransit:
		return "transit"
	case LegRideShare:
		return "rideshare"
	default:
		return fmt.Sprintf("legmode(%d)", uint8(m))
	}
}

// Leg is one segment of an itinerary. Start is when the traveller begins
// the leg (after any wait), End when they finish it; Wait is the waiting
// time spent before boarding (zero for walks).
type Leg struct {
	Mode      LegMode
	RouteName string
	From, To  geo.Point
	Start     float64
	End       float64
	Wait      float64
	Distance  float64 // meters travelled in this leg
}

// Itinerary is a full multi-modal plan.
type Itinerary struct {
	Legs   []Leg
	Depart float64 // request time
	Arrive float64
}

// TravelTime is total elapsed time from the request to arrival.
func (it *Itinerary) TravelTime() float64 { return it.Arrive - it.Depart }

// WalkTime sums walking legs' durations.
func (it *Itinerary) WalkTime() float64 {
	var s float64
	for _, l := range it.Legs {
		if l.Mode == LegWalk {
			s += l.End - l.Start
		}
	}
	return s
}

// WalkDistance sums walking legs' distances.
func (it *Itinerary) WalkDistance() float64 {
	var s float64
	for _, l := range it.Legs {
		if l.Mode == LegWalk {
			s += l.Distance
		}
	}
	return s
}

// WaitTime sums waiting before boardings.
func (it *Itinerary) WaitTime() float64 {
	var s float64
	for _, l := range it.Legs {
		s += l.Wait
	}
	return s
}

// Hops counts the vehicle legs (transit or ride share); transfers =
// Hops − 1 when positive.
func (it *Itinerary) Hops() int {
	n := 0
	for _, l := range it.Legs {
		if l.Mode != LegWalk {
			n++
		}
	}
	return n
}

// Planner is a time-dependent multi-modal router. Safe for concurrent
// use: Plan allocates per-query state.
type Planner struct {
	net *transit.Network
}

// NewPlanner builds a planner over a network.
func NewPlanner(net *transit.Network) *Planner {
	return &Planner{net: net}
}

// Network returns the planner's transit network.
func (p *Planner) Network() *transit.Network { return p.net }

// parent reconstructs the journey tree.
type parent struct {
	prevStop transit.StopID // InvalidStop for origin-access walks
	mode     LegMode
	route    string
	board    float64 // vehicle departure (transit) or walk start
	arrive   float64
	walkDist float64
}

type paItem struct {
	stop transit.StopID
	time float64
}
type paQueue []paItem

func (q paQueue) Len() int            { return len(q) }
func (q paQueue) Less(i, j int) bool  { return q[i].time < q[j].time }
func (q paQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *paQueue) Push(x interface{}) { *q = append(*q, x.(paItem)) }
func (q *paQueue) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// Plan computes an earliest-arrival multi-modal itinerary from src to dst
// departing at or after departAfter. It returns nil (no error) when no
// plan exists — e.g. endpoints beyond all walk radii with no service.
func (p *Planner) Plan(src, dst geo.Point, departAfter float64) (*Itinerary, error) {
	if !src.Valid() || !dst.Valid() {
		return nil, fmt.Errorf("mmtp: invalid coordinates")
	}

	// Direct walk candidate.
	directDist := geo.Haversine(src, dst)
	var best *Itinerary
	if directDist <= maxDirectWalk {
		walkT := directDist / WalkSpeed
		best = &Itinerary{
			Depart: departAfter,
			Arrive: departAfter + walkT,
			Legs: []Leg{{
				Mode: LegWalk, From: src, To: dst,
				Start: departAfter, End: departAfter + walkT, Distance: directDist,
			}},
		}
	}

	n := len(p.net.Stops)
	if n == 0 {
		return best, nil
	}
	arr := make([]float64, n)
	par := make([]parent, n)
	for i := range arr {
		arr[i] = math.Inf(1)
	}
	var q paQueue

	// Access walks.
	ids, dists := p.net.StopsNear(src, maxWalkToStop, nil, nil)
	for i, s := range ids {
		t := departAfter + dists[i]/WalkSpeed
		if t < arr[s] {
			arr[s] = t
			par[s] = parent{prevStop: transit.InvalidStop, mode: LegWalk, arrive: t, board: departAfter, walkDist: dists[i]}
			heap.Push(&q, paItem{stop: s, time: t})
		}
	}

	for q.Len() > 0 {
		it := heap.Pop(&q).(paItem)
		s := it.stop
		if it.time > arr[s] {
			continue
		}
		// Ride each route serving s one stop forward.
		for _, rs := range p.net.RoutesAt(s) {
			r := p.net.RouteOf(rs)
			if rs.Idx >= len(r.Stops)-1 {
				continue
			}
			dep, ok := r.NextDeparture(rs.Idx, arr[s]+boardMargin)
			if !ok {
				continue
			}
			next := r.Stops[rs.Idx+1]
			t := dep + r.LegTime(rs.Idx)
			if t < arr[next] {
				arr[next] = t
				par[next] = parent{prevStop: s, mode: LegTransit, route: r.Name, board: dep, arrive: t}
				heap.Push(&q, paItem{stop: next, time: t})
			}
		}
		// Walking transfers.
		tIDs, tDists := p.net.StopsNear(p.net.Stops[s].Point, transferRadius, nil, nil)
		for i, o := range tIDs {
			if o == s {
				continue
			}
			t := arr[s] + tDists[i]/WalkSpeed
			if t < arr[o] {
				arr[o] = t
				par[o] = parent{prevStop: s, mode: LegWalk, board: arr[s], arrive: t, walkDist: tDists[i]}
				heap.Push(&q, paItem{stop: o, time: t})
			}
		}
	}

	// Egress walks: best arrival at the destination.
	eIDs, eDists := p.net.StopsNear(dst, maxWalkToStop, nil, nil)
	bestStop := transit.InvalidStop
	bestT := math.Inf(1)
	bestEgress := 0.0
	for i, s := range eIDs {
		if math.IsInf(arr[s], 1) {
			continue
		}
		t := arr[s] + eDists[i]/WalkSpeed
		if t < bestT {
			bestT = t
			bestStop = s
			bestEgress = eDists[i]
		}
	}
	if bestStop == transit.InvalidStop {
		return best, nil
	}
	if best != nil && best.Arrive <= bestT {
		return best, nil // walking wins
	}

	it := p.reconstruct(par, bestStop, src, departAfter)
	it.Legs = append(it.Legs, Leg{
		Mode: LegWalk, From: p.net.Stops[bestStop].Point, To: dst,
		Start: arr[bestStop], End: bestT, Distance: bestEgress,
	})
	it.Arrive = bestT
	it.Depart = departAfter
	return mergeTransitLegs(it), nil
}

// reconstruct walks the parent tree from the final stop back to the
// origin, emitting legs in order.
func (p *Planner) reconstruct(par []parent, last transit.StopID, src geo.Point, departAfter float64) *Itinerary {
	var rev []Leg
	s := last
	for s != transit.InvalidStop {
		pa := par[s]
		to := p.net.Stops[s].Point
		var from geo.Point
		if pa.prevStop == transit.InvalidStop {
			from = src
		} else {
			from = p.net.Stops[pa.prevStop].Point
		}
		switch pa.mode {
		case LegTransit:
			prevArr := departAfter
			if pa.prevStop != transit.InvalidStop {
				prevArr = par[pa.prevStop].arrive
			}
			rev = append(rev, Leg{
				Mode: LegTransit, RouteName: pa.route, From: from, To: to,
				Start: pa.board, End: pa.arrive, Wait: math.Max(0, pa.board-prevArr),
				Distance: geo.Haversine(from, to),
			})
		default:
			rev = append(rev, Leg{
				Mode: LegWalk, From: from, To: to,
				Start: pa.board, End: pa.arrive, Distance: pa.walkDist,
			})
		}
		s = pa.prevStop
	}
	it := &Itinerary{}
	for i := len(rev) - 1; i >= 0; i-- {
		it.Legs = append(it.Legs, rev[i])
	}
	return it
}

// mergeTransitLegs merges consecutive transit legs on the same route into
// a single leg (riding through without alighting) and merges consecutive
// walks.
func mergeTransitLegs(it *Itinerary) *Itinerary {
	if len(it.Legs) == 0 {
		return it
	}
	merged := []Leg{it.Legs[0]}
	for _, l := range it.Legs[1:] {
		last := &merged[len(merged)-1]
		sameRoute := l.Mode == LegTransit && last.Mode == LegTransit && l.RouteName == last.RouteName
		bothWalk := l.Mode == LegWalk && last.Mode == LegWalk
		if sameRoute || bothWalk {
			last.To = l.To
			last.End = l.End
			last.Distance += l.Distance
			// Waits within a through-ride are dwell, not transfer waits.
			continue
		}
		merged = append(merged, l)
	}
	it.Legs = merged
	return it
}
