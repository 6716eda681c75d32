package core

import (
	"context"
	"fmt"
	"time"

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

// CancelBookingCtx is CancelBooking with trace propagation: the re-stitch
// shortest paths become "path_search" spans of the context's trace.
func (e *Engine) CancelBookingCtx(ctx context.Context, id index.RideID, pickup, dropoff roadnet.NodeID) (err error) {
	ctx, span := e.tel.startOp(ctx, opCancel)
	if e.tel != nil || span != nil {
		defer func(start time.Time) {
			now := time.Now()
			span.SetError(err)
			// Observe before End: sealing recycles the trace record.
			e.tel.observeOp(opCancel, now.Sub(start), span, err)
			span.EndAt(now)
		}(time.Now())
	}
	// Cancellation is rare; it holds its ride's stripe write lock for the
	// whole re-stitch rather than running the optimistic protocol: simpler,
	// but on the default one stripe every search and write waits it out.
	sh := e.ix.ShardFor(id)
	sh.Lock()
	defer sh.Unlock()

	r := sh.Ix.Ride(id)
	if r == nil {
		return ErrUnknownRide
	}

	puIdx, doIdx := -1, -1
	for i, v := range r.Via {
		if puIdx < 0 && v.Kind == index.ViaPickup && v.Node == pickup {
			puIdx = i
			continue
		}
		if puIdx >= 0 && doIdx < 0 && v.Kind == index.ViaDropoff && v.Node == dropoff {
			doIdx = i
		}
	}
	if puIdx < 0 || doIdx < 0 {
		return fmt.Errorf("xar: no booking with pickup %d and drop-off %d on ride %d", pickup, dropoff, id)
	}
	if r.Via[puIdx].RouteIdx < r.Progress {
		return ErrNoLongerFeasible // rider already picked up (or passed)
	}

	// Remaining via-point sequence without the cancelled pair.
	keep := make([]index.ViaPoint, 0, len(r.Via)-2)
	for i, v := range r.Via {
		if i == puIdx || i == doIdx {
			continue
		}
		keep = append(keep, v)
	}

	// Re-stitch the route with shortest paths between consecutive kept
	// via-points. (Cancellation is rarer than booking; the simpler full
	// re-stitch is acceptable here, unlike the hot booking path.)
	route := []roadnet.NodeID{keep[0].Node}
	viaIdx := make([]int, len(keep))
	f := e.finder()
	for i := 1; i < len(keep); i++ {
		if keep[i].Node == keep[i-1].Node {
			viaIdx[i] = len(route) - 1
			continue
		}
		e.m.shortestPaths.Add(1)
		res := e.tracedShortestPath(ctx, f, keep[i-1].Node, keep[i].Node)
		if !res.Reachable() {
			e.release(f)
			return ErrUnreachable
		}
		route = append(route, res.Path[1:]...)
		viaIdx[i] = len(route) - 1
	}
	e.release(f)

	newLen, err := e.disc.City().Graph.PathLength(route)
	if err != nil {
		return fmt.Errorf("xar: cancel re-stitch produced an invalid route: %w", err)
	}

	r.Route = route
	r.RouteETA = e.computeETAs(route, r.Departure)
	r.Via = r.Via[:0]
	for i, v := range keep {
		r.Via = append(r.Via, index.ViaPoint{
			RouteIdx: viaIdx[i], Node: v.Node, ETA: r.RouteETA[viaIdx[i]], Kind: v.Kind,
		})
	}
	spent := newLen - r.BaseRouteLen
	if spent < 0 {
		spent = 0
	}
	r.DetourLimit = r.DetourLimitInitial - spent
	if r.DetourLimit < 0 {
		r.DetourLimit = 0
	}
	e.m.cancellations.Add(1)
	r.SeatsAvail++ // the Reregister below lists the ride again if it was full
	// The vehicle position is re-derived on the next Track: route indices
	// changed, so reset progress conservatively to the route start of the
	// first remaining segment.
	r.Progress = 0
	if err := sh.Ix.Reregister(r); err != nil {
		return err
	}
	e.recordEvent(journal.Cancelled, id, span, spent, "")
	return nil
}
