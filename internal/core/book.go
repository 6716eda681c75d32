package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// bookMaxAttempts bounds the optimistic-commit retry loop. Conflicts
// need a concurrent mutation of the same ride between a booking's
// snapshot and its commit; even under heavy contention most retries
// succeed on the second attempt, so a small bound suffices — beyond it
// the match is genuinely contended and reported no-longer-feasible.
const bookMaxAttempts = 4

// Book confirms a match (§VIII-B). It re-validates the match against the
// ride's current state (the ride may have moved or accepted other
// bookings since the search), chooses the concrete pickup and drop-off
// landmarks, computes the at-most-four shortest paths the paper
// prescribes, splices the new via-points into the route, charges the
// exact detour against the ride's remaining budget, consumes a seat and
// re-registers the ride's cluster information.
//
// The exact detour may exceed the cluster-approximated estimate by up to
// the additive 4ε bound; unless Config.StrictDetour is set, the booking
// is allowed to overshoot the remaining budget by at most 4ε, matching
// the paper's guarantee.
//
// Concurrency: booking is optimistic. The expensive splice (up to four
// shortest paths) runs outside any lock against a snapshot of the ride
// taken under the shard's read lock; the commit then re-checks, under
// the shard's write lock, that the ride's revision counter is unchanged
// before applying the new route. A concurrent booking/cancel/advance on
// the same ride bumps the revision and forces a retry (counted in
// Metrics.BookConflictRetries and xar_book_conflict_retries_total);
// rides on other shards — and searches everywhere — are never blocked by
// the splice.
func (e *Engine) Book(m Match, req Request) (Booking, error) {
	return e.BookCtx(context.Background(), m, req)
}

// BookCtx is Book with trace propagation: each optimistic commit attempt
// becomes a "book_attempt" span (its ≤4 shortest-path calls as
// "path_search" children), and the booking span records how many commit
// attempts were burned on revision conflicts — the trace-level twin of
// xar_book_conflict_retries_total.
func (e *Engine) BookCtx(ctx context.Context, m Match, req Request) (bk Booking, err error) {
	if err := req.Validate(); err != nil {
		return Booking{}, err
	}
	ctx, span := e.tel.startOp(ctx, opBook)
	if e.tel != nil || span != nil {
		defer func(start time.Time) {
			now := time.Now()
			span.SetError(err)
			// Observe before End: sealing recycles the trace record.
			e.tel.observeOp(opBook, now.Sub(start), span, err)
			span.EndAt(now)
		}(time.Now())
	}

	// Reject unknown rides before anything else (kept first so the error
	// does not depend on where the match's clusters lie). The existence
	// check is racy by design — tryBook re-validates under the lock.
	sh := e.ix.ShardFor(m.Ride)
	sh.RLock()
	known := sh.Ix.Ride(m.Ride) != nil
	sh.RUnlock()
	if !known {
		e.m.bookingsFailed.Add(1)
		return Booking{}, ErrUnknownRide
	}

	// Concrete pickup/drop-off landmarks: the nearest landmark of each
	// matched cluster to the requester's endpoints. Pure discretization
	// lookups — resolved once, outside the retry loop and any lock. The
	// walk to them must respect the request's limit.
	puLM, walkSrc := e.disc.NearestLandmarkInCluster(req.Source, m.PickupCluster)
	doLM, walkDst := e.disc.NearestLandmarkInCluster(req.Dest, m.DropoffCluster)
	if puLM < 0 || doLM < 0 {
		return Booking{}, ErrNoLongerFeasible
	}
	if walkSrc+walkDst > req.WalkLimit {
		return Booking{}, ErrNoLongerFeasible
	}
	puNode := e.disc.Landmarks[puLM].Node
	doNode := e.disc.Landmarks[doLM].Node

	for attempt := 1; ; attempt++ {
		actx, aspan := telemetry.ChildSpan(ctx, "book_attempt")
		aspan.SetInt("attempt", int64(attempt))
		b, conflict, berr := e.tryBook(actx, m, puLM, doLM, puNode, doNode, walkSrc, walkDst)
		if conflict {
			// An attribute, not a span error: a conflict that retries into
			// success must not classify the whole trace as errored.
			aspan.SetStr("outcome", "conflict")
		} else {
			aspan.SetError(berr)
		}
		aspan.End()
		if !conflict {
			span.SetInt("conflict_retries", int64(attempt-1))
			if berr == nil {
				e.recordEvent(journal.Booked, m.Ride, span, b.DetourActual,
					"pu="+strconv.FormatInt(int64(puNode), 10)+" do="+strconv.FormatInt(int64(doNode), 10))
				e.recordEvent(journal.SpliceCommitted, m.Ride, span, b.DetourActual,
					"sp_runs="+strconv.Itoa(b.ShortestPathRuns))
				// Greedy-regret sampling: re-match the request in the
				// background against what is still bookable.
				e.shadow.offerRegret(req, b.WalkSource+b.WalkDest)
			}
			return b, berr
		}
		e.recordEvent(journal.BookConflictRetried, m.Ride, span, float64(attempt), "")
		e.m.bookConflictRetries.Add(1)
		if e.tel != nil && e.tel.bookConflicts != nil {
			e.tel.bookConflicts.Inc()
		}
		if attempt >= bookMaxAttempts {
			span.SetInt("conflict_retries", int64(attempt))
			return Booking{}, ErrNoLongerFeasible
		}
	}
}

// tryBook runs one optimistic attempt: snapshot under the read lock,
// splice unlocked, validate-and-commit under the write lock. conflict
// reports that the ride mutated between snapshot and commit and the
// caller should retry.
func (e *Engine) tryBook(ctx context.Context, m Match, puLM, doLM int, puNode, doNode roadnet.NodeID, walkSrc, walkDst float64) (bk Booking, conflict bool, err error) {
	sh := e.ix.ShardFor(m.Ride)

	// Phase 1 — snapshot: validate against current state under the read
	// lock and copy what the splice needs.
	sh.RLock()
	r := sh.Ix.Ride(m.Ride)
	if r == nil {
		sh.RUnlock()
		e.m.bookingsFailed.Add(1)
		return Booking{}, false, ErrUnknownRide
	}
	if r.SeatsAvail <= 0 {
		sh.RUnlock()
		e.m.bookingsFailed.Add(1)
		return Booking{}, false, ErrRideFull
	}
	// Re-derive the best valid support pair; the search's snapshot may be
	// stale.
	ps, pd := bestSupportPair(r, m.PickupCluster, m.DropoffCluster, 0)
	if ps == nil {
		sh.RUnlock()
		return Booking{}, false, ErrNoLongerFeasible
	}
	sSeg, dSeg, freshEstimate := int(ps.Seg), int(pd.Seg), ps.Detour+pd.Detour
	if sSeg > dSeg {
		sh.RUnlock()
		return Booking{}, false, ErrNoLongerFeasible
	}
	// The vehicle must not have passed the splice start.
	if r.Via[sSeg].RouteIdx < r.Progress {
		sh.RUnlock()
		return Booking{}, false, ErrNoLongerFeasible
	}
	rev := r.Rev
	detourBudget, departure := r.DetourLimit, r.Departure
	shadow := &index.Ride{
		ID:    r.ID,
		Route: append([]roadnet.NodeID(nil), r.Route...),
		Via:   append([]index.ViaPoint(nil), r.Via...),
	}
	sh.RUnlock()

	// Phase 2 — compute: path length, refined estimate, the ≤4
	// shortest-path splice and its ETAs, all against the snapshot, no
	// lock held.
	oldLen, perr := e.disc.City().Graph.PathLength(shadow.Route)
	if perr != nil {
		return Booking{}, false, fmt.Errorf("xar: corrupt route on ride %d: %w", shadow.ID, perr)
	}
	// Refine the detour estimate with the precomputed landmark-distance
	// matrix now that the concrete pickup/drop-off landmarks are known.
	// Still no shortest-path computation: this is a table lookup chain,
	// and it is the "approximated detour" the paper's Figure 3a compares
	// against the exact splice cost.
	estimate := e.refineDetourEstimate(shadow, sSeg, dSeg, puLM, doLM, freshEstimate)

	f := e.finder()
	newRoute, newVia, spRuns, serr := e.spliceRoute(ctx, f, shadow, sSeg, dSeg, puNode, doNode)
	e.release(f)
	// Counted here, not at commit: a splice that is then rejected or
	// loses the optimistic race has run its searches all the same.
	e.m.shortestPaths.Add(uint64(spRuns))
	if serr != nil {
		return Booking{}, false, serr
	}
	newLen, perr := e.disc.City().Graph.PathLength(newRoute)
	if perr != nil {
		return Booking{}, false, fmt.Errorf("xar: spliced route invalid: %w", perr)
	}
	detour := newLen - oldLen
	if detour < 0 {
		detour = 0
	}
	allowance := 0.0
	if !e.cfg.StrictDetour {
		allowance = 4 * e.disc.Epsilon()
	}
	if detour > detourBudget+allowance {
		return Booking{}, false, ErrDetourExceeded
	}
	newETA := e.computeETAs(newRoute, departure)
	for i := range newVia {
		newVia[i].ETA = newETA[newVia[i].RouteIdx]
	}

	// Phase 3 — validate-and-commit under the shard's write lock: the
	// splice is only applied if the ride is untouched since the snapshot
	// (same revision ⇒ same route, budget and progress, and still a seat).
	sh.Lock()
	defer sh.Unlock()
	r = sh.Ix.Ride(m.Ride)
	if r == nil {
		e.m.bookingsFailed.Add(1)
		return Booking{}, false, ErrUnknownRide
	}
	if r.Rev != rev {
		return Booking{}, true, nil // stale splice: retry
	}

	// Commit: route, via-points, ETAs, budget, seats; then rebuild the
	// cluster registrations (bumps Rev).
	r.Route, r.RouteETA, r.Via = newRoute, newETA, newVia
	r.DetourLimit -= detour
	if r.DetourLimit < 0 {
		r.DetourLimit = 0
	}
	r.SeatsAvail--
	if rerr := sh.Ix.Reregister(r); rerr != nil {
		return Booking{}, false, rerr
	}

	e.m.bookings.Add(1)
	e.observeBookingQuality(detourBudget, detour, estimate)

	var puETA, doETA float64
	for _, v := range r.Via {
		if v.Node == puNode && v.Kind == index.ViaPickup {
			puETA = v.ETA
		}
		if v.Node == doNode && v.Kind == index.ViaDropoff {
			doETA = v.ETA
		}
	}
	return Booking{
		Ride:             r.ID,
		PickupLandmark:   puLM,
		DropoffLandmark:  doLM,
		PickupNode:       puNode,
		DropoffNode:      doNode,
		PickupETA:        puETA,
		DropoffETA:       doETA,
		WalkSource:       walkSrc,
		WalkDest:         walkDst,
		DetourEstimate:   estimate,
		DetourActual:     detour,
		ShortestPathRuns: spRuns,
	}, false, nil
}

// observeBookingQuality records a confirmed booking's approximation-gap
// telemetry: xar_detour_slack_ratio — how much of the Theorem 6 detour
// envelope (remaining budget + the 4ε allowance) the exact detour
// consumed — and xar_epsilon_consumption_ratio — what fraction of the
// 4ε additive error bound the cluster estimate actually missed by.
// Two histogram observations per booking; nothing on the search path.
func (e *Engine) observeBookingQuality(budget, detour, estimate float64) {
	qc := e.quality
	if qc == nil {
		return
	}
	eps4 := 4 * e.disc.Epsilon()
	if lim := budget + eps4; lim > 0 {
		qc.ObserveSlack(detour / lim)
	}
	if eps4 > 0 {
		over := detour - estimate
		if over < 0 {
			over = 0
		}
		qc.ObserveEpsilonConsumption(over / eps4)
	}
}

// refineDetourEstimate predicts the booking's exact splice detour from
// the precomputed landmark-to-landmark driving distances: the chain
// through the via-points' landmarks and the chosen pickup/drop-off
// landmarks. Falls back to the cluster-level estimate when a via node
// has no landmark within Δ.
func (e *Engine) refineDetourEstimate(r *index.Ride, sSeg, dSeg, puLM, doLM int, fallback float64) float64 {
	lmOf := func(v roadnet.NodeID) int {
		lm, _ := e.disc.LandmarkOfNode(v)
		return lm
	}
	d := e.disc.LandmarkDist
	if sSeg == dSeg {
		s1, s2 := lmOf(r.Via[sSeg].Node), lmOf(r.Via[sSeg+1].Node)
		if s1 < 0 || s2 < 0 {
			return fallback
		}
		est := d(s1, puLM) + d(puLM, doLM) + d(doLM, s2) - d(s1, s2)
		if est < 0 {
			est = 0
		}
		return est
	}
	s1, s2 := lmOf(r.Via[sSeg].Node), lmOf(r.Via[sSeg+1].Node)
	d1, d2 := lmOf(r.Via[dSeg].Node), lmOf(r.Via[dSeg+1].Node)
	if s1 < 0 || s2 < 0 || d1 < 0 || d2 < 0 {
		return fallback
	}
	est := (d(s1, puLM) + d(puLM, s2) - d(s1, s2)) +
		(d(d1, doLM) + d(doLM, d2) - d(d1, d2))
	if est < 0 {
		est = 0
	}
	return est
}

// spliceRoute builds the new route and via-point list for a pickup in
// segment sSeg and a drop-off in segment dSeg (sSeg ≤ dSeg) out of at
// most four legs (three when sSeg == dSeg). A via-to-via segment of a
// route is one shortest path — a create, a booking and a cancellation
// each lay it down as one — and so is every stretch of it: a leg whose
// two ends lie in order on the segment it replaces is that stretch, and
// only the others are searched, on the caller-supplied finder, each a
// "path_search" span of the context's trace. The count returned is of
// those searches. r may be a snapshot; only Route and Via are read.
func (e *Engine) spliceRoute(ctx context.Context, f pathFinder, r *index.Ride, sSeg, dSeg int, pu, do roadnet.NodeID) ([]roadnet.NodeID, []index.ViaPoint, int, error) {
	runs := 0
	// leg returns a shortest path a → b; old is the segment it replaces.
	leg := func(a, b roadnet.NodeID, old []roadnet.NodeID) ([]roadnet.NodeID, error) {
		if a == b {
			return []roadnet.NodeID{a}, nil
		}
		if i := slices.Index(old, a); i >= 0 {
			if j := slices.Index(old[i:], b); j > 0 {
				return old[i : i+j+1], nil
			}
		}
		runs++
		res := e.tracedShortestPath(ctx, f, a, b)
		if !res.Reachable() {
			return nil, ErrUnreachable
		}
		return res.Path, nil
	}

	b := routeBuilder{}
	s1, s2 := r.Via[sSeg], r.Via[sSeg+1]
	oldS := r.Route[s1.RouteIdx : s2.RouteIdx+1]

	if sSeg == dSeg {
		// s1 → pu → do → s2: three legs.
		p1, err := leg(s1.Node, pu, oldS)
		if err != nil {
			return nil, nil, runs, err
		}
		p2, err := leg(pu, do, oldS)
		if err != nil {
			return nil, nil, runs, err
		}
		p3, err := leg(do, s2.Node, oldS)
		if err != nil {
			return nil, nil, runs, err
		}

		b.appendRoute(r.Route[:s1.RouteIdx+1])
		b.copyVias(r.Via[:sSeg+1], 0)
		b.appendPath(p1)
		b.addVia(pu, index.ViaPickup)
		b.appendPath(p2)
		b.addVia(do, index.ViaDropoff)
		b.appendPath(p3)
		b.markVia(s2)
		delta := (len(b.route) - 1) - s2.RouteIdx
		b.appendRoute(r.Route[s2.RouteIdx+1:])
		b.copyVias(r.Via[sSeg+2:], delta)
		return b.route, b.via, runs, nil
	}

	// Different segments: s1 → pu → s2 … d1 → do → d2 — four legs.
	d1, d2 := r.Via[dSeg], r.Via[dSeg+1]
	oldD := r.Route[d1.RouteIdx : d2.RouteIdx+1]
	p1, err := leg(s1.Node, pu, oldS)
	if err != nil {
		return nil, nil, runs, err
	}
	p2, err := leg(pu, s2.Node, oldS)
	if err != nil {
		return nil, nil, runs, err
	}
	p3, err := leg(d1.Node, do, oldD)
	if err != nil {
		return nil, nil, runs, err
	}
	p4, err := leg(do, d2.Node, oldD)
	if err != nil {
		return nil, nil, runs, err
	}

	b.appendRoute(r.Route[:s1.RouteIdx+1])
	b.copyVias(r.Via[:sSeg+1], 0)
	b.appendPath(p1)
	b.addVia(pu, index.ViaPickup)
	b.appendPath(p2)
	b.markVia(s2)
	deltaMid := (len(b.route) - 1) - s2.RouteIdx
	// Middle chunk: everything strictly between s2 and d1, then d1 and
	// any untouched via-points in between (shifted by deltaMid).
	b.appendRoute(r.Route[s2.RouteIdx+1 : d1.RouteIdx+1])
	b.copyVias(r.Via[sSeg+2:dSeg+1], deltaMid)
	b.appendPath(p3)
	b.addVia(do, index.ViaDropoff)
	b.appendPath(p4)
	b.markVia(d2)
	deltaSuf := (len(b.route) - 1) - d2.RouteIdx
	b.appendRoute(r.Route[d2.RouteIdx+1:])
	b.copyVias(r.Via[dSeg+2:], deltaSuf)
	return b.route, b.via, runs, nil
}

// routeBuilder assembles a spliced route while tracking via positions.
type routeBuilder struct {
	route []roadnet.NodeID
	via   []index.ViaPoint
}

// appendRoute appends raw route nodes (no deduplication needed: chunks
// are contiguous slices of the old route).
func (b *routeBuilder) appendRoute(nodes []roadnet.NodeID) {
	b.route = append(b.route, nodes...)
}

// appendPath appends a shortest path, skipping its first node (already
// present as the last node of the route so far).
func (b *routeBuilder) appendPath(path []roadnet.NodeID) {
	if len(b.route) > 0 && len(path) > 0 && b.route[len(b.route)-1] == path[0] {
		path = path[1:]
	}
	b.route = append(b.route, path...)
}

// addVia records a new via-point at the current route end.
func (b *routeBuilder) addVia(node roadnet.NodeID, kind index.ViaKind) {
	b.via = append(b.via, index.ViaPoint{
		RouteIdx: len(b.route) - 1,
		Node:     node,
		Kind:     kind,
	})
}

// markVia re-records an existing via-point at the current route end.
func (b *routeBuilder) markVia(v index.ViaPoint) {
	b.via = append(b.via, index.ViaPoint{
		RouteIdx: len(b.route) - 1,
		Node:     v.Node,
		Kind:     v.Kind,
	})
}

// copyVias carries over untouched via-points from the old ride. Old route
// chunks are appended verbatim, so each via's new position is its old
// RouteIdx plus the chunk's displacement delta.
func (b *routeBuilder) copyVias(vias []index.ViaPoint, delta int) {
	for _, v := range vias {
		b.via = append(b.via, index.ViaPoint{RouteIdx: v.RouteIdx + delta, Node: v.Node, Kind: v.Kind})
	}
}
