package core

import (
	"context"
	"fmt"

	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/roadnet"
)

// CancelBooking removes a confirmed booking from a ride: the pickup and
// drop-off via-points are deleted, the route is re-stitched through the
// remaining via-points with shortest paths, the seat is returned and the
// detour budget recomputed from the driver's original tolerance. Only
// bookings whose pickup the vehicle has not yet passed can be cancelled.
//
// The booking is identified by its pickup and drop-off nodes, as returned
// in the Booking struct.
func (e *Engine) CancelBooking(id index.RideID, pickup, dropoff roadnet.NodeID) error {
	return e.CancelBookingCtx(context.Background(), id, pickup, dropoff)
}

// CancelBookingCtx is CancelBooking with trace propagation: a
// cancellation runs the optimistic protocol a booking runs
// (retryConflicts), so its attempts are "cancel_attempt" spans, their
// shortest paths "path_search" children, and a lost commit counts as a
// conflict retry; ErrNoLongerFeasible also means the ride stayed contended
// for bookMaxAttempts attempts.
func (e *Engine) CancelBookingCtx(ctx context.Context, id index.RideID, pickup, dropoff roadnet.NodeID) (err error) {
	ctx, span, start := e.tel.beginOp(ctx, opCancel)
	defer e.tel.endOp(opCancel, start, span, &err)
	var spent float64
	err = e.retryConflicts(ctx, span, "cancel_attempt", id, func(ctx context.Context) (conflict bool, err error) {
		spent, conflict, err = e.tryCancel(ctx, id, pickup, dropoff)
		return conflict, err
	})
	if err != nil {
		return err
	}
	e.m.cancellations.Add(1)
	e.recordEvent(journal.Cancelled, id, span, spent, "")
	return nil
}

// tryCancel runs one optimistic attempt; spent is the detour the ride's
// remaining bookings cost, in meters over its booking-free route.
func (e *Engine) tryCancel(ctx context.Context, id index.RideID, pickup, dropoff roadnet.NodeID) (spent float64, conflict bool, err error) {
	puIdx, doIdx := -1, -1
	next, err := e.snapshot(id, func(r *index.Ride) error {
		for i, v := range r.Via {
			if puIdx < 0 && v.Kind == index.ViaPickup && v.Node == pickup {
				puIdx = i
			} else if puIdx >= 0 && v.Kind == index.ViaDropoff && v.Node == dropoff {
				doIdx = i
				break
			}
		}
		if doIdx < 0 {
			return fmt.Errorf("xar: no booking with pickup %d and drop-off %d on ride %d", pickup, dropoff, id)
		}
		if r.Via[puIdx].RouteIdx < r.Progress {
			return ErrNoLongerFeasible // rider already picked up (or passed)
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}

	// The next schedule leaves the pair out; the one or two legs that close
	// the gaps are searched with no lock held.
	sched := make([]viaEdit, 0, len(next.Via)-2)
	for i, v := range next.Via {
		if i != puIdx && i != doIdx {
			sched = append(sched, viaEdit{v, i})
		}
	}
	// The route up to the via-point before the pickup stays as it is, so a
	// vehicle short of it keeps its place; one past it (and short of the
	// pickup) is put back there, onto the leg that replaces the one it was on.
	next.Progress = min(next.Progress, next.Via[puIdx-1].RouteIdx)
	f := e.finder()
	next.Route, next.Via, _, err = e.stitch(ctx, f, &next, sched)
	e.release(f)
	if err != nil {
		return 0, false, err
	}
	newLen, err := e.disc.City().Graph.PathLength(next.Route)
	if err != nil {
		return 0, false, fmt.Errorf("xar: cancel re-stitch produced an invalid route: %w", err)
	}
	// The budget is recomputed from the driver's original tolerance.
	spent = max(newLen-next.BaseRouteLen, 0)
	next.DetourLimit = next.DetourLimitInitial - spent
	next.SeatsAvail++ // the commit's Reregister lists the ride again if it was full
	conflict, err = e.commit(&next)
	return spent, conflict, err
}
