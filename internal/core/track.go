package core

import (
	"context"
	"fmt"
	"slices"

	"xar/internal/index"
	"xar/internal/journal"
)

// Track implements ride tracking (§VIII-A) by wall clock: it advances the
// ride's position to the last route node whose ETA is ≤ now and updates
// the index, marking crossed pass-through clusters obsolete and dropping
// the ride from clusters it can no longer serve.
//
// It returns true when the ride has arrived at its destination.
func (e *Engine) Track(id index.RideID, now float64) (bool, error) {
	return e.TrackCtx(context.Background(), id, now)
}

// TrackCtx is Track with trace propagation.
func (e *Engine) TrackCtx(ctx context.Context, id index.RideID, now float64) (arrived bool, err error) {
	if !finite(now) {
		return false, fmt.Errorf("xar: track time %v is not finite", now)
	}
	return e.advance(ctx, id, func(r *index.Ride) int {
		pos := r.Progress
		for pos+1 < len(r.RouteETA) && r.RouteETA[pos+1] <= now {
			pos++
		}
		return pos
	})
}

// advance is the one tracking step: under the index's write lock it
// moves the ride to the route index position picks (never backwards),
// journals the pickups and drop-offs passed on the way and reports
// arrival at the destination.
func (e *Engine) advance(ctx context.Context, id index.RideID, position func(*index.Ride) int) (arrived bool, err error) {
	_, span, start := e.tel.beginOp(ctx, opTrack)
	defer e.tel.endOp(opTrack, start, span, &err)
	e.ix.Lock()
	defer e.ix.Unlock()

	e.m.trackCalls.Add(1)
	r := e.ix.Ix.Ride(id)
	if r == nil {
		return false, ErrUnknownRide
	}
	oldPos := r.Progress
	if pos := position(r); pos > oldPos {
		if err := e.ix.Ix.Advance(id, pos); err != nil {
			return false, err
		}
		// Journal the pickups / drop-offs the vehicle just passed. Still
		// under the index lock, which is safe: the journal takes only
		// its own locks and never calls back into the index.
		if e.jr != nil {
			for _, v := range r.Via {
				if v.RouteIdx <= oldPos || v.RouteIdx > pos {
					continue
				}
				switch v.Kind {
				case index.ViaPickup:
					e.recordEvent(journal.PickedUp, id, span, v.ETA, "")
				case index.ViaDropoff:
					e.recordEvent(journal.DroppedOff, id, span, v.ETA, "")
				}
			}
		}
	}
	return r.Progress == len(r.Route)-1, nil
}

// TrackAll advances every active ride to the given time and removes the
// ones that arrived. It returns the number of completed rides — the
// periodic maintenance pass of a deployment.
func (e *Engine) TrackAll(now float64) (completed int, err error) {
	var toAdvance []index.RideID
	e.ix.View().Rides(func(r *index.Ride) bool {
		toAdvance = append(toAdvance, r.ID)
		return true
	})
	// View.Rides walks the slot table: repeatable, but slots are
	// recycled, so slot order is not ride order. Ascending ride ID keeps
	// the sequence of Advance and CompleteRide calls — and with it the
	// journal's event order and the index's block layout — what it was
	// before rides had slots.
	slices.Sort(toAdvance)

	for _, id := range toAdvance {
		arrived, terr := e.Track(id, now)
		if terr != nil {
			if terr == ErrUnknownRide {
				continue // raced with completion; fine
			}
			return completed, terr
		}
		if arrived {
			e.CompleteRide(id)
			completed++
		}
	}
	return completed, nil
}
