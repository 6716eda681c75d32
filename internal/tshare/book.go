package tshare

import (
	"fmt"

	"xar/internal/roadnet"
)

// Book inserts the matched pickup and drop-off into the taxi's schedule,
// recomputes the affected route with shortest paths, charges the exact
// detour, consumes a seat and refreshes the grid registrations.
func (e *Engine) Book(m Match, req Request) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	t := e.taxis[m.Taxi]
	if t == nil {
		return ErrUnknownTaxi
	}
	if t.SeatsAvail <= 0 {
		return ErrTaxiFull
	}
	// Re-validate only when the schedule changed since the search was
	// validated: T-Share books at the insertion position the search
	// found, so the common case is a direct insertion.
	fresh := m
	if m.rev != t.rev {
		var ok bool
		fresh, ok = e.validate(t, req)
		if !ok {
			return ErrInfeasible
		}
	}

	// Insertion-based scheduling: only the segments receiving the pickup
	// and the drop-off are recomputed with shortest paths; all other
	// route chunks are reused verbatim. This keeps T-Share's booking
	// cheap — the paper's Figure 4c has it beating XAR's (which must
	// additionally refresh its cluster registrations).
	type stop struct {
		node     roadnet.NodeID
		fromSeg  int  // original segment this stop starts, or -1
		inserted bool // freshly inserted pickup/drop-off
	}
	stops := make([]stop, 0, len(t.Via)+2)
	for s := 0; s < len(t.Via); s++ {
		stops = append(stops, stop{node: t.Via[s].Node, fromSeg: s})
		if s == fresh.pickupSeg {
			stops = append(stops, stop{node: fresh.pickupNode, inserted: true})
		}
		if s == fresh.dropoffSeg {
			stops = append(stops, stop{node: fresh.dropNode, inserted: true})
		}
	}

	depart := t.RouteETA[0]
	route := []roadnet.NodeID{stops[0].node}
	viaIdx := []int{0}
	appendPath := func(path []roadnet.NodeID) {
		if len(path) > 0 && route[len(route)-1] == path[0] {
			path = path[1:]
		}
		route = append(route, path...)
		viaIdx = append(viaIdx, len(route)-1)
	}
	for i := 1; i < len(stops); i++ {
		prev, cur := stops[i-1], stops[i]
		if cur.node == route[len(route)-1] {
			viaIdx = append(viaIdx, len(route)-1)
			continue
		}
		// Untouched original segment: reuse the existing route chunk.
		if !prev.inserted && !cur.inserted && prev.fromSeg >= 0 && cur.fromSeg == prev.fromSeg+1 &&
			prev.fromSeg != fresh.pickupSeg && prev.fromSeg != fresh.dropoffSeg {
			a, b := t.Via[prev.fromSeg].RouteIdx, t.Via[cur.fromSeg].RouteIdx
			appendPath(t.Route[a : b+1])
			continue
		}
		e.pathQueries++
		res := e.searcher.ShortestPath(route[len(route)-1], cur.node)
		if !res.Reachable() {
			return ErrUnreachable
		}
		appendPath(res.Path)
	}

	// The new route keeps the old one up to stop pickupSeg and from the old
	// stop dropoffSeg+1 on, two stops later in the new schedule: one walk
	// sums both routes and times the new one.
	walk, err := e.city.Graph.WalkRoute(route, depart, roadnet.Splice{
		Old:       t.Route,
		Part:      viaIdx[fresh.pickupSeg],
		OldRejoin: t.Via[fresh.dropoffSeg+1].RouteIdx,
		NewRejoin: viaIdx[fresh.dropoffSeg+3],
	})
	if err != nil {
		return fmt.Errorf("tshare: splice on taxi %d: %w", t.ID, err)
	}
	detour := walk.Len - walk.OldLen
	if detour < 0 {
		detour = 0
	}
	if detour > t.DetourLimit {
		return ErrInfeasible
	}

	e.unregister(t)
	t.Route = route
	t.RouteETA = walk.ETA
	t.Via = t.Via[:0]
	for i, s := range stops {
		t.Via = append(t.Via, Via{RouteIdx: viaIdx[i], Node: s.node, ETA: t.RouteETA[viaIdx[i]]})
	}
	t.DetourLimit -= detour
	t.SeatsAvail--
	t.Progress = 0 // route indices changed; re-derived on next Advance
	t.rev++
	e.register(t)
	return nil
}

// Advance moves every taxi to its position at the given time, prunes
// stale cell registrations (arrival times in the past) and removes taxis
// that reached their destination. It returns the number completed.
func (e *Engine) Advance(now float64) int {
	e.mu.Lock()
	defer e.mu.Unlock()

	var done []TaxiID
	for id, t := range e.taxis {
		pos := t.Progress
		for pos+1 < len(t.RouteETA) && t.RouteETA[pos+1] <= now {
			pos++
		}
		if pos != t.Progress {
			t.rev++
		}
		t.Progress = pos
		if pos == len(t.Route)-1 {
			done = append(done, id)
			continue
		}
		// Drop registrations whose arrival time has passed: the taxi can
		// no longer serve those cells.
		g := e.city.Graph
		for c := range t.cells {
			// Recompute the taxi's first future arrival in c; if none,
			// unregister from the cell.
			future := -1.0
			for i := pos; i < len(t.Route); i++ {
				if e.gs.At(g.Point(t.Route[i])) == c {
					future = t.RouteETA[i]
					break
				}
			}
			if future < 0 {
				delete(t.cells, c)
				e.cellRemove(c, id)
			}
		}
	}
	for _, id := range done {
		t := e.taxis[id]
		e.unregister(t)
		delete(e.taxis, id)
	}
	return len(done)
}
