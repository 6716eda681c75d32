package tshare

import (
	"sort"

	"xar/internal/geo"
	"xar/internal/grid"
	"xar/internal/roadnet"
)

// Search runs T-Share's dual-side expanding grid search and returns up to
// k validated matches (k <= 0 means all). Candidate discovery expands
// square rings around the origin and destination cells in increasing
// distance; every candidate in both sets is validated with the insertion
// detour test, computed with lazy shortest paths (or haversine estimates
// when Config.HaversineValidation is set).
//
// This is where T-Share pays for its grid-only representation: each
// validation costs up to 2×(schedule length) shortest-path runs, and the
// expansion itself touches up to MaxExpandGrids cells per side.
func (e *Engine) Search(req Request, k int) ([]Match, error) {
	e.mu.Lock() // exclusive: validation shares the engine's searcher
	defer e.mu.Unlock()

	oCell := e.gs.At(req.Source)
	dCell := e.gs.At(req.Dest)
	if oCell == grid.Invalid || dCell == grid.Invalid {
		return nil, ErrOutOfRegion
	}

	// Side 1: taxis expected near the origin within the departure window.
	oCand := e.collectCandidates(oCell, req.EarliestDeparture, req.LatestDeparture)
	if oCand.len() == 0 {
		return nil, nil
	}
	// Side 2: taxis expected near the destination (window extended).
	dCand := e.collectCandidates(dCell, req.EarliestDeparture, req.LatestDeparture+e.cfg.DestWindowSlack)

	// Intersect, preserving origin-side discovery order (closest rings
	// first) so early termination at k favors nearby taxis.
	var matches []Match
	for _, id := range oCand.order {
		if _, onDest := dCand.set[id]; !onDest {
			continue
		}
		t := e.taxis[id]
		if t == nil || t.SeatsAvail <= 0 {
			continue
		}
		m, ok := e.validate(t, req)
		if !ok {
			continue
		}
		matches = append(matches, m)
		if k > 0 && len(matches) >= k {
			break
		}
	}
	return matches, nil
}

// collectCandidates expands rings around cell and returns the taxis whose
// cell ETA lies in [t1, t2]. The iteration order is by ring, then by
// arrival time, so early termination at k favors nearby taxis.
func (e *Engine) collectCandidates(center grid.ID, t1, t2 float64) orderedCands {
	visited := 0
	found := orderedCands{set: make(map[TaxiID]float64)}
	var ring []grid.ID
	for r := int32(0); ; r++ {
		ring = e.gs.Ring(center, r, ring[:0])
		if len(ring) == 0 && r > 0 {
			break // ran off the region
		}
		stop := false
		for _, c := range ring {
			visited++
			for _, entry := range e.cellWindow(c, t1, t2) {
				if _, dup := found.set[entry.taxi]; !dup {
					found.set[entry.taxi] = entry.eta
					found.order = append(found.order, entry.taxi)
				}
			}
			if visited >= e.cfg.MaxExpandGrids {
				stop = true
				break
			}
		}
		if stop {
			break
		}
	}
	return found
}

// orderedCands is a candidate set remembering discovery order.
type orderedCands struct {
	set   map[TaxiID]float64
	order []TaxiID
}

func (o orderedCands) len() int { return len(o.order) }

// cellWindow returns the cell's entries with eta in [t1, t2] via binary
// search on the sorted list.
func (e *Engine) cellWindow(c grid.ID, t1, t2 float64) []cellEntry {
	list := e.cells[c]
	i := sort.Search(len(list), func(i int) bool { return list[i].eta >= t1 })
	j := i
	for j < len(list) && list[j].eta <= t2 {
		j++
	}
	return list[i:j]
}

// validate checks whether the request can be inserted into the taxi's
// schedule: it finds the cheapest pickup and drop-off insertion positions
// (pickup not after drop-off), computes the total insertion detour with
// lazy shortest paths (or haversine), and checks the detour budget and
// pickup time window.
func (e *Engine) validate(t *Taxi, req Request) (Match, bool) {
	pu, _ := e.city.SnapToNode(req.Source)
	do, _ := e.city.SnapToNode(req.Dest)
	if pu == roadnet.InvalidNode || do == roadnet.InvalidNode {
		return Match{}, false
	}

	nSeg := len(t.Via) - 1
	if nSeg < 1 {
		return Match{}, false
	}
	firstSeg := e.firstOpenSegment(t)
	if firstSeg < 0 {
		return Match{}, false
	}

	type insCost struct {
		seg  int
		cost float64
		eta  float64
	}
	puCosts := make([]insCost, 0, nSeg)
	doCosts := make([]insCost, 0, nSeg)
	for s := firstSeg; s < nSeg; s++ {
		a, b := t.Via[s], t.Via[s+1]
		cPu := e.insertionCost(a.Node, b.Node, pu)
		if cPu >= 0 {
			// ETA at pickup ≈ segment start time + time to reach pickup.
			eta := a.ETA + e.legTime(a.Node, pu)
			puCosts = append(puCosts, insCost{seg: s, cost: cPu, eta: eta})
		}
		cDo := e.insertionCost(a.Node, b.Node, do)
		if cDo >= 0 {
			doCosts = append(doCosts, insCost{seg: s, cost: cDo, eta: a.ETA + e.legTime(a.Node, do)})
		}
	}

	best := t.DetourLimit + 1
	var bm Match
	found := false
	for _, p := range puCosts {
		if p.eta < req.EarliestDeparture || p.eta > req.LatestDeparture {
			continue
		}
		for _, d := range doCosts {
			if d.seg < p.seg {
				continue
			}
			total := p.cost + d.cost
			if d.seg == p.seg {
				// Same segment: a→pu→do→b. Cost differs from two
				// independent insertions; recompute directly.
				a, b := t.Via[p.seg], t.Via[p.seg+1]
				total = e.chainCost(a.Node, pu, do, b.Node)
				if total < 0 {
					continue
				}
			} else if d.eta < p.eta {
				continue
			}
			if total <= t.DetourLimit && total < best {
				best = total
				bm = Match{
					Taxi:       t.ID,
					PickupETA:  p.eta,
					Detour:     total,
					pickupSeg:  p.seg,
					dropoffSeg: d.seg,
					pickupNode: pu,
					dropNode:   do,
					rev:        t.rev,
				}
				found = true
			}
		}
	}
	return bm, found
}

// firstOpenSegment returns the first schedule segment the vehicle has not
// fully passed, or -1 when the ride is over.
func (e *Engine) firstOpenSegment(t *Taxi) int {
	for s := 0; s+1 < len(t.Via); s++ {
		if t.Via[s].RouteIdx >= t.Progress {
			return s
		}
	}
	return -1
}

// insertionCost returns the extra distance of detouring a→x→b instead of
// a→b, or a negative number when x is unreachable.
func (e *Engine) insertionCost(a, b, x roadnet.NodeID) float64 {
	if x == a || x == b {
		return 0
	}
	dax := e.dist(a, x)
	dxb := e.dist(x, b)
	dab := e.dist(a, b)
	if dax < 0 || dxb < 0 || dab < 0 {
		return -1
	}
	c := dax + dxb - dab
	if c < 0 {
		c = 0
	}
	return c
}

// chainCost returns the extra distance of a→pu→do→b over a→b, or negative
// when unreachable.
func (e *Engine) chainCost(a, pu, do, b roadnet.NodeID) float64 {
	d1 := e.dist(a, pu)
	d2 := e.dist(pu, do)
	d3 := e.dist(do, b)
	dab := e.dist(a, b)
	if d1 < 0 || d2 < 0 || d3 < 0 || dab < 0 {
		return -1
	}
	c := d1 + d2 + d3 - dab
	if c < 0 {
		c = 0
	}
	return c
}

// dist is the lazy distance oracle: a real shortest path, or haversine in
// the Figure 5a alternate setting. Negative means unreachable.
func (e *Engine) dist(a, b roadnet.NodeID) float64 {
	if a == b {
		return 0
	}
	e.pathQueries++
	if e.cfg.HaversineValidation {
		return geo.Haversine(e.city.Graph.Point(a), e.city.Graph.Point(b))
	}
	res := e.searcher.ShortestPath(a, b)
	if !res.Reachable() {
		return -1
	}
	return res.Dist
}

// legTime estimates travel time for a leg at the free-flow average speed.
func (e *Engine) legTime(a, b roadnet.NodeID) float64 {
	d := e.dist(a, b)
	if d < 0 {
		return 0
	}
	return d / 7.0
}
