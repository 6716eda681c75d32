package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// bookMaxAttempts bounds the optimistic-commit retry loop. Conflicts
// need a concurrent mutation of the same ride between a write's
// snapshot and its commit; even under heavy contention most retries
// succeed on the second attempt, so a small bound suffices — beyond it
// the ride is genuinely contended and the write reported
// no-longer-feasible.
const bookMaxAttempts = 4

// Book confirms a match (§VIII-B). It re-validates the match against the
// ride's current state (the ride may have moved or accepted other
// bookings since the search), chooses the concrete pickup and drop-off
// landmarks, computes the at-most-four shortest paths the paper
// prescribes, stitches the new via-points into the route, charges the
// exact detour against the ride's remaining budget, consumes a seat and
// re-registers the ride's cluster information.
//
// The exact detour may exceed the cluster-approximated estimate by up to
// the additive 4ε bound, so the booking is allowed to overshoot the
// remaining budget by at most 4ε, matching the paper's guarantee.
//
// Concurrency: booking and cancelling are optimistic (retryConflicts).
// The shortest paths run outside any lock against a snapshot of the ride
// taken under the index's read lock; the commit then re-checks, under
// the write lock, that the ride's revision counter is unchanged before
// applying the new route. A concurrent booking/cancel/advance on the
// same ride bumps the revision and forces a retry (counted in
// Metrics.BookConflictRetries and xar_book_conflict_retries_total);
// searches, and writes to other rides, never wait for a shortest path.
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
	ctx, span, start := e.tel.beginOp(ctx, opBook)
	defer e.tel.endOp(opBook, start, span, &err)

	// Reject unknown rides before anything else (kept first so the error
	// does not depend on where the match's clusters lie). The existence
	// check is racy by design — tryBook re-validates under the lock.
	e.ix.RLock()
	known := e.ix.Ix.Ride(m.Ride) != nil
	e.ix.RUnlock()
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
	bk = Booking{
		Ride:            m.Ride,
		PickupLandmark:  puLM,
		DropoffLandmark: doLM,
		PickupNode:      e.disc.Landmarks[puLM].Node,
		DropoffNode:     e.disc.Landmarks[doLM].Node,
		WalkSource:      walkSrc,
		WalkDest:        walkDst,
	}
	err = e.retryConflicts(ctx, span, "book_attempt", m.Ride, func(ctx context.Context) (bool, error) {
		return e.tryBook(ctx, m, &bk)
	})
	if err != nil {
		if errors.Is(err, ErrUnknownRide) || errors.Is(err, ErrRideFull) {
			e.m.bookingsFailed.Add(1)
		}
		return Booking{}, err
	}
	if e.jr != nil { // the notes are built for a journal only
		e.recordEvent(journal.Booked, m.Ride, span, bk.DetourActual,
			"pu="+strconv.FormatInt(int64(bk.PickupNode), 10)+" do="+strconv.FormatInt(int64(bk.DropoffNode), 10))
		e.recordEvent(journal.SpliceCommitted, m.Ride, span, bk.DetourActual,
			"sp_runs="+strconv.Itoa(bk.ShortestPathRuns))
	}
	// Greedy-regret sampling: re-match the request in the background
	// against what is still bookable.
	e.shadow.offerRegret(req, bk.WalkSource+bk.WalkDest)
	return bk, nil
}

// retryConflicts runs an optimistic write of one ride — try snapshots the
// ride, computes with no lock held and commits iff the ride's revision is
// unchanged (snapshot, commit) — until an attempt does not conflict, at
// most bookMaxAttempts times. Each attempt is a span named attemptSpan; the
// operation's span gets the number of attempts lost as conflict_retries.
func (e *Engine) retryConflicts(ctx context.Context, span *telemetry.Span, attemptSpan string, ride index.RideID, try func(context.Context) (conflict bool, err error)) error {
	for attempt := 1; ; attempt++ {
		actx, aspan := telemetry.ChildSpan(ctx, attemptSpan)
		aspan.SetInt("attempt", int64(attempt))
		conflict, err := try(actx)
		if conflict {
			// An attribute, not a span error: a conflict that retries into
			// success must not classify the whole trace as errored.
			aspan.SetStr("outcome", "conflict")
		} else {
			aspan.SetError(err)
		}
		aspan.End()
		if !conflict {
			span.SetInt("conflict_retries", int64(attempt-1))
			return err
		}
		e.recordEvent(journal.BookConflictRetried, ride, span, float64(attempt), "")
		e.m.bookConflictRetries.Add(1)
		if e.tel != nil && e.tel.bookConflicts != nil {
			e.tel.bookConflicts.Inc()
		}
		if attempt >= bookMaxAttempts {
			span.SetInt("conflict_retries", int64(attempt))
			return ErrNoLongerFeasible
		}
	}
}

// snapshot is the first phase of an optimistic write: under the index's
// read lock it runs check against the ride and, if that passes, copies
// the scalars a commit derives the ride's next state from and shares the
// route and the schedule the unlocked phase computes against. Sharing is
// safe because a commit replaces a ride's Route and Via and never writes
// into them: a snapshot held across another write's commit still reads
// the route and schedule it was taken of.
func (e *Engine) snapshot(id index.RideID, check func(*index.Ride) error) (index.Ride, error) {
	e.ix.RLock()
	defer e.ix.RUnlock()
	r := e.ix.Ix.Ride(id)
	if r == nil {
		return index.Ride{}, ErrUnknownRide
	}
	if err := check(r); err != nil {
		return index.Ride{}, err
	}
	return index.Ride{
		ID: r.ID, Rev: r.Rev, Departure: r.Departure, Progress: r.Progress, SeatsAvail: r.SeatsAvail,
		DetourLimit: r.DetourLimit, DetourLimitInitial: r.DetourLimitInitial, BaseRouteLen: r.BaseRouteLen,
		Route: r.Route, Via: r.Via,
	}, nil
}

// commit is the last phase: under the write lock, next — a snapshot the
// unlocked phase has turned into the ride's next state — is applied iff
// the ride is untouched since the snapshot (same revision ⇒ same route,
// schedule, budget, seats and progress), and the ride's cluster
// registrations are rebuilt, which bumps Rev. conflict reports a changed
// revision: next was computed against stale state and the caller retries.
// next.RouteETA is the new route's, from the caller's walk of it; the
// via-points' ETAs are read off it before the lock is taken. A ride's
// Route, RouteETA and Via are replaced, never written in place, so the
// caller may still read next's after they are the ride's, and a snapshot
// may share them.
func (e *Engine) commit(next *index.Ride) (conflict bool, err error) {
	for i := range next.Via {
		next.Via[i].ETA = next.RouteETA[next.Via[i].RouteIdx]
	}
	e.ix.Lock()
	defer e.ix.Unlock()
	r := e.ix.Ix.Ride(next.ID)
	if r == nil {
		return false, ErrUnknownRide
	}
	if r.Rev != next.Rev {
		return true, nil
	}
	r.Route, r.RouteETA, r.Via = next.Route, next.RouteETA, next.Via
	r.SeatsAvail, r.DetourLimit, r.Progress = next.SeatsAvail, max(next.DetourLimit, 0), next.Progress
	return false, e.ix.Ix.Reregister(r)
}

// tryBook runs one optimistic attempt at the booking bk describes (ride,
// landmarks, nodes, walks) and on success fills in what it cost.
func (e *Engine) tryBook(ctx context.Context, m Match, bk *Booking) (conflict bool, err error) {
	// Phase 1 — snapshot, once the match still holds against the ride's
	// current state.
	var sSeg, dSeg int
	var estimate float64
	next, err := e.snapshot(m.Ride, func(r *index.Ride) error {
		if r.SeatsAvail <= 0 {
			return ErrRideFull
		}
		// Re-derive the best valid support pair; the search's snapshot may
		// be stale.
		p, ok := bestSupportPair(r, e.disc, m.PickupCluster, m.DropoffCluster, 0)
		if !ok {
			return ErrNoLongerFeasible
		}
		sSeg, dSeg, estimate = r.RunSeg(p.pickup), r.RunSeg(p.dropoff), p.detour
		if sSeg > dSeg {
			return ErrNoLongerFeasible
		}
		// The vehicle must not have passed the splice start.
		if r.Via[sSeg].RouteIdx < r.Progress {
			return ErrNoLongerFeasible
		}
		return nil
	})
	if err != nil {
		return false, err
	}

	// Phase 2 — compute: refined estimate, the ≤4-shortest-path stitch
	// and one walk of the new route, all against the snapshot, no lock
	// held.
	//
	// Refine the detour estimate with the precomputed landmark-distance
	// matrix now that the concrete pickup/drop-off landmarks are known.
	// Still no shortest-path computation: this is a table lookup chain,
	// and it is the "approximated detour" the paper's Figure 3a compares
	// against the exact stitch cost.
	estimate = e.refineDetourEstimate(e.disc, &next, sSeg, dSeg, bk.PickupLandmark, bk.DropoffLandmark, estimate)

	// The next schedule: the pickup after via-point sSeg, the drop-off
	// after dSeg (and after the pickup when the two are one).
	sched := make([]viaEdit, 0, len(next.Via)+2)
	for i, v := range next.Via {
		sched = append(sched, viaEdit{v, i})
		if i == sSeg {
			sched = append(sched, viaEdit{index.ViaPoint{Node: bk.PickupNode, Kind: index.ViaPickup}, -1})
		}
		if i == dSeg {
			sched = append(sched, viaEdit{index.ViaPoint{Node: bk.DropoffNode, Kind: index.ViaDropoff}, -1})
		}
	}
	old, oldVia := next.Route, next.Via
	f := e.finder()
	next.Route, next.Via, bk.ShortestPathRuns, err = e.stitch(ctx, f, &next, sched, &e.m.bookLabels)
	e.release(f)
	if err != nil {
		return false, err
	}
	// The new route keeps the old one up to via-point sSeg and from the
	// old via-point dSeg+1 on, two places later in the new schedule: one
	// walk sums both routes and times the new one.
	walk, err := e.disc.City().Graph.WalkRoute(next.Route, next.Departure, roadnet.Splice{
		Old:       old,
		Part:      next.Via[sSeg].RouteIdx,
		OldRejoin: oldVia[dSeg+1].RouteIdx,
		NewRejoin: next.Via[dSeg+3].RouteIdx,
	})
	if err != nil {
		return false, fmt.Errorf("xar: splice on ride %d: %w", next.ID, err)
	}
	next.RouteETA = walk.ETA
	detour := max(walk.Len-walk.OldLen, 0)
	budget := next.DetourLimit
	if detour > budget+4*e.disc.Epsilon() {
		return false, ErrDetourExceeded
	}
	next.DetourLimit -= detour
	next.SeatsAvail--

	// Phase 3 — commit iff the ride is at the snapshot's revision.
	if conflict, err := e.commit(&next); conflict || err != nil {
		return conflict, err
	}
	e.m.bookings.Add(1)
	e.observeBookingQuality(budget, detour, estimate)
	bk.PickupETA, bk.DropoffETA = next.Via[sSeg+1].ETA, next.Via[dSeg+2].ETA
	bk.DetourEstimate, bk.DetourActual = estimate, detour
	return false, nil
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

// landmarkTable is what refineDetourEstimate reads landmark distances
// from: the region, whose resident table keeps each to within half a unit
// (Discretization.LandmarkDist), so that a chain of six lookups is within
// three units of the exact chain; tests pass the exact table.
type landmarkTable interface{ LandmarkDist(a, b int) float64 }

// refineDetourEstimate predicts the booking's exact splice detour from
// the precomputed landmark-to-landmark driving distances: the chain
// through the via-points' landmarks and the chosen pickup/drop-off
// landmarks. Falls back to the cluster-level estimate when a via node
// has no landmark within Δ.
func (e *Engine) refineDetourEstimate(t landmarkTable, r *index.Ride, sSeg, dSeg, puLM, doLM int, fallback float64) float64 {
	lmOf := func(v roadnet.NodeID) int {
		lm, _ := e.disc.LandmarkOfNode(v)
		return lm
	}
	d := t.LandmarkDist
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

// viaEdit is one via-point of a ride's next schedule: the via-point it is
// in the current one (was indexes Ride.Via), or a new one (was < 0).
type viaEdit struct {
	index.ViaPoint
	was int
}

// stitch lays r's route through the schedule next, which starts and ends
// at via-points r already has: the concatenation of one shortest path per
// leg, allocated once at its exact length, and the via-points at their
// places on it (ETAs are the commit's to fill in). A via-to-via segment
// of a route is one shortest path — create, book and cancel each lay it
// down as one — and so is every stretch of it: a leg whose two ends lie
// in order on the one segment of r it replaces is that stretch (a segment
// between two via-points that stay neighbours is kept whole), and only
// the other legs are searched, on the caller's finder, each a
// "path_search" span of the context's trace. runs counts those searches:
// at most four when next adds a pickup and a drop-off, at most two when
// it leaves a pair out. r may be a snapshot; only Route and Via are read.
// The searches' labelled nodes are added to labels, unless it is nil.
func (e *Engine) stitch(ctx context.Context, f pathFinder, r *index.Ride, next []viaEdit, labels *atomic.Uint64) (route []roadnet.NodeID, via []index.ViaPoint, runs int, err error) {
	// legs[i] is the leg into next[i+1], without the node it starts at.
	legs := make([][]roadnet.NodeID, len(next)-1)
	n, lo := 1, 0
	for i := range legs {
		a, b := next[i], next[i+1]
		// The leg replaces r's route between lo, the last current
		// via-point at or before a, and hi, the first at or after b.
		if a.was >= 0 {
			lo = a.was
		}
		hi := b.was
		for j := i + 2; hi < 0; j++ {
			hi = next[j].was
		}
		if a.Node == b.Node {
			continue
		}
		if hi == lo+1 {
			old := r.Route[r.Via[lo].RouteIdx : r.Via[hi].RouteIdx+1]
			if p := slices.Index(old, a.Node); p >= 0 {
				if q := slices.Index(old[p:], b.Node); q > 0 {
					legs[i] = old[p+1 : p+q+1]
					n += q
					continue
				}
			}
		}
		runs++
		res := e.tracedShortestPath(ctx, f, a.Node, b.Node, labels)
		if !res.Reachable() {
			return nil, nil, runs, ErrUnreachable
		}
		legs[i] = res.Path[1:]
		n += len(legs[i])
	}
	route = append(make([]roadnet.NodeID, 0, n), next[0].Node)
	via = make([]index.ViaPoint, len(next))
	for i, v := range next {
		if i > 0 {
			route = append(route, legs[i-1]...)
		}
		via[i] = v.ViaPoint
		via[i].RouteIdx = len(route) - 1
	}
	return route, via, runs, nil
}
