package mmtp

import (
	"math"

	"xar/internal/core"
	"xar/internal/geo"
)

// RideProvider is the slice of the XAR engine the integration modes
// consume; *core.Engine satisfies it. Keeping it an interface lets tests
// inject synthetic providers and keeps the dependency one-directional.
type RideProvider interface {
	SearchK(req core.Request, k int) ([]core.Match, error)
}

// The paper's Figure 6 setting for the Aider and Enhancer modes.
const (
	// maxLegWalk and maxLegWait bound a feasible leg: more than 1 km of
	// walking or 10 minutes of waiting before boarding makes it
	// infeasible.
	maxLegWalk = 1000.0
	maxLegWait = 600.0
	// searchWalkLimit is the walking threshold passed to XAR searches,
	// and searchWindowSlack the departure window's length after the
	// leg's start, in seconds.
	searchWalkLimit   = 1000.0
	searchWindowSlack = 900.0
	// rideSpeed estimates a shared ride's in-vehicle speed (m/s) when a
	// match carries no usable drop-off ETA.
	rideSpeed = 7.0
	// maxEnhancerHops is the paper's k ≤ 4 bound: above it, only
	// source→intermediate and intermediate→destination segments are
	// tried (2k+1 combinations instead of C(k+1,2)).
	maxEnhancerHops = 4
)

// Infeasible reports whether a commuter would refuse the leg: a walk of
// more than 1 km, or a wait of more than 10 minutes before boarding.
func (l Leg) Infeasible() bool {
	return (l.Mode == LegWalk && l.Distance > maxLegWalk) || l.Wait > maxLegWait
}

// AiderResult reports what Aider changed.
type AiderResult struct {
	Itinerary  *Itinerary
	Replaced   int // infeasible legs replaced by shared rides
	Infeasible int // infeasible legs found (replaced + unfixable)
	Searches   int // XAR searches issued
}

// Aider implements the aider mode of §IX-A: XAR provides shared-ride
// options for any infeasible segment of the trip plan — a leg whose
// walking distance or waiting time exceeds the commuter's tolerance. The
// segment's own endpoints (not the trip's) and its time window go to the
// ride search; a match replaces the leg.
func Aider(it *Itinerary, xar RideProvider) (AiderResult, error) {
	res := AiderResult{Itinerary: it}
	if it == nil || len(it.Legs) == 0 {
		return res, nil
	}
	out := &Itinerary{Depart: it.Depart, Arrive: it.Arrive}
	shift := 0.0 // cumulative time saved so far
	for _, leg := range it.Legs {
		if !leg.Infeasible() {
			adjusted := leg
			adjusted.Start -= shift
			adjusted.End -= shift
			out.Legs = append(out.Legs, adjusted)
			continue
		}
		res.Infeasible++
		req := core.Request{
			Source:            leg.From,
			Dest:              leg.To,
			EarliestDeparture: leg.Start - leg.Wait - shift,
			LatestDeparture:   leg.Start - shift + searchWindowSlack,
			WalkLimit:         searchWalkLimit,
		}
		res.Searches++
		ms, err := xar.SearchK(req, 1)
		if err != nil && err != core.ErrNotServable {
			return res, err
		}
		if len(ms) == 0 {
			adjusted := leg
			adjusted.Start -= shift
			adjusted.End -= shift
			out.Legs = append(out.Legs, adjusted) // keep the original leg
			continue
		}
		m := ms[0]
		rideLeg := composeRideLeg(leg.From, leg.To, m, leg.Start-leg.Wait-shift)
		saved := (leg.End - shift) - rideLeg.End
		if saved < 0 {
			saved = 0 // a slower ride still fixes the infeasibility
		}
		out.Legs = append(out.Legs, rideLeg)
		shift += saved
		res.Replaced++
	}
	if n := len(out.Legs); n > 0 {
		out.Arrive = out.Legs[n-1].End
	}
	res.Itinerary = out
	return res, nil
}

// composeRideLeg converts a match into an itinerary leg: walk-to-pickup
// and walk-from-drop-off are folded into the leg's Wait/End accounting by
// the caller; the leg itself covers pickup→drop-off.
func composeRideLeg(from, to geo.Point, m core.Match, earliest float64) Leg {
	start := math.Max(m.PickupETA, earliest)
	dist := geo.Haversine(from, to)
	end := m.DropoffETA
	if end <= start {
		end = start + dist/rideSpeed
	}
	return Leg{
		Mode:      LegRideShare,
		RouteName: "XAR shared ride",
		From:      from,
		To:        to,
		Start:     start,
		End:       end,
		Wait:      math.Max(0, start-earliest),
		Distance:  dist,
	}
}

// EnhancerResult reports what Enhancer changed.
type EnhancerResult struct {
	Itinerary             *Itinerary
	Improved              bool
	Searches              int // XAR searches issued — C(k+1,2) or 2k+1 per the paper
	HopsBefore, HopsAfter int
}

// Enhancer implements the enhancer mode of §IX-B: it enumerates segment
// combinations over the plan's hop points — all non-adjacent pairs when
// the plan has ≤ maxEnhancerHops intermediate hops (C(k+1,2) searches),
// otherwise only source→hop and hop→destination pairs (2k+1 searches) —
// and replaces the segment with a shared ride when one exists and reduces
// the number of hops (and possibly the travel time).
func Enhancer(it *Itinerary, xar RideProvider) (EnhancerResult, error) {
	res := EnhancerResult{Itinerary: it}
	if it == nil || len(it.Legs) == 0 {
		return res, nil
	}
	res.HopsBefore = it.Hops()
	res.HopsAfter = res.HopsBefore

	// Hop points: trip source, every leg boundary where the mode is a
	// vehicle transfer, trip destination.
	type hopPoint struct {
		p       geo.Point
		legIdx  int // index of the first leg starting at (or after) p
		arrival float64
	}
	points := []hopPoint{{p: it.Legs[0].From, legIdx: 0, arrival: it.Depart}}
	for i := 1; i < len(it.Legs); i++ {
		points = append(points, hopPoint{p: it.Legs[i].From, legIdx: i, arrival: it.Legs[i-1].End})
	}
	last := it.Legs[len(it.Legs)-1]
	points = append(points, hopPoint{p: last.To, legIdx: len(it.Legs), arrival: it.Arrive})

	k := len(points) - 2 // intermediate hop points
	type segPair struct{ i, j int }
	var pairs []segPair
	if k <= maxEnhancerHops {
		// All non-adjacent pairs: C(k+1, 2) combinations.
		for i := 0; i < len(points); i++ {
			for j := i + 2; j < len(points); j++ {
				pairs = append(pairs, segPair{i, j})
			}
		}
	} else {
		// Linear fallback (paper: 2k+1 segments): source→each intermediate
		// point and the destination (k+1 pairs, including the entire
		// journey), plus each intermediate point→destination (k pairs).
		for j := 1; j < len(points); j++ {
			pairs = append(pairs, segPair{0, j})
		}
		for i := 1; i < len(points)-1; i++ {
			pairs = append(pairs, segPair{i, len(points) - 1})
		}
	}

	// Prefer the replacement covering the most legs (max hop reduction),
	// breaking ties by earlier arrival of the composed itinerary.
	bestSpan := 0
	var bestIt *Itinerary
	for _, pr := range pairs {
		from, to := points[pr.i], points[pr.j]
		req := core.Request{
			Source:            from.p,
			Dest:              to.p,
			EarliestDeparture: from.arrival,
			LatestDeparture:   from.arrival + searchWindowSlack,
			WalkLimit:         searchWalkLimit,
		}
		res.Searches++
		ms, err := xar.SearchK(req, 1)
		if err != nil && err != core.ErrNotServable {
			return res, err
		}
		if len(ms) == 0 {
			continue
		}
		span := to.legIdx - from.legIdx
		if span <= bestSpan {
			continue
		}
		cand := spliceRideLeg(it, from.legIdx, to.legIdx, composeRideLeg(from.p, to.p, ms[0], from.arrival))
		// Only accept enhancements that do not degrade hops.
		if cand.Hops() > res.HopsBefore {
			continue
		}
		bestSpan = span
		bestIt = cand
	}
	if bestIt != nil {
		res.Itinerary = bestIt
		res.Improved = true
		res.HopsAfter = bestIt.Hops()
	}
	return res, nil
}

// spliceRideLeg returns a copy of it with legs [fromLeg, toLeg) replaced
// by the ride leg, shifting later legs if the ride arrives earlier.
func spliceRideLeg(it *Itinerary, fromLeg, toLeg int, ride Leg) *Itinerary {
	out := &Itinerary{Depart: it.Depart}
	out.Legs = append(out.Legs, it.Legs[:fromLeg]...)
	out.Legs = append(out.Legs, ride)
	origEnd := it.Depart
	if toLeg > 0 {
		origEnd = it.Legs[toLeg-1].End
	}
	shift := origEnd - ride.End
	for _, l := range it.Legs[toLeg:] {
		l.Start -= shift
		l.End -= shift
		out.Legs = append(out.Legs, l)
	}
	out.Arrive = out.Legs[len(out.Legs)-1].End
	return out
}
