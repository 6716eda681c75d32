package core

import (
	"math"
	"testing"

	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/roadnet"
)

// bookOne creates a ride, searches along its corridor and books the
// first match, returning everything a cancellation test needs.
func bookOne(t *testing.T, e *Engine) (bk Booking, req Request) {
	t.Helper()
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req = requestAlong(e, r, 0.3, 0.7, 3600, 900)
	ms, err := e.Search(req)
	if err != nil || len(ms) == 0 {
		t.Fatalf("search: %v / %d matches", err, len(ms))
	}
	bk, err = e.Book(ms[0], req)
	if err != nil {
		t.Fatal(err)
	}
	return bk, req
}

func TestCancelBookingRestoresRide(t *testing.T) {
	e := newTestEngine(t)
	bk, _ := bookOne(t, e)
	r := e.Ride(bk.Ride)

	seatsAfterBook := r.SeatsAvail
	viasAfterBook := len(r.Via)
	lenAfterBook, _ := e.disc.City().Graph.PathLength(r.Route)

	if err := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode); err != nil {
		t.Fatal(err)
	}
	r = e.Ride(bk.Ride) // re-fetch: snapshots don't observe the cancel
	if r.SeatsAvail != seatsAfterBook+1 {
		t.Fatalf("seats %d → %d; cancellation must return the seat", seatsAfterBook, r.SeatsAvail)
	}
	if len(r.Via) != viasAfterBook-2 {
		t.Fatalf("vias %d → %d; want -2", viasAfterBook, len(r.Via))
	}
	lenAfterCancel, err := e.disc.City().Graph.PathLength(r.Route)
	if err != nil {
		t.Fatalf("route corrupted by cancel: %v", err)
	}
	if lenAfterCancel > lenAfterBook+1 {
		t.Fatalf("route grew on cancel: %.1f → %.1f", lenAfterBook, lenAfterCancel)
	}
	// The booking-free ride has its full budget back.
	if math.Abs(lenAfterCancel-r.BaseRouteLen) < 1 && math.Abs(r.DetourLimit-r.DetourLimitInitial) > 1 {
		t.Fatalf("detour budget %.1f not restored to %.1f", r.DetourLimit, r.DetourLimitInitial)
	}
	// Index invariants survive.
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Via nodes still sit at their claimed route indices.
	for _, v := range r.Via {
		if r.Route[v.RouteIdx] != v.Node {
			t.Fatalf("via %v not at route index %d", v.Node, v.RouteIdx)
		}
	}
}

func TestCancelBookingThenRebook(t *testing.T) {
	e := newTestEngine(t)
	bk, req := bookOne(t, e)
	if err := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode); err != nil {
		t.Fatal(err)
	}
	// The same request can book again after the cancellation.
	ms, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Ride == bk.Ride {
			found = true
			if _, err := e.Book(m, req); err != nil {
				t.Fatalf("rebook failed: %v", err)
			}
			break
		}
	}
	if !found {
		t.Fatal("cancelled ride no longer matchable for the same request")
	}
}

func TestCancelBookingErrors(t *testing.T) {
	e := newTestEngine(t)
	if err := e.CancelBooking(999, 1, 2); err != ErrUnknownRide {
		t.Fatalf("err = %v, want ErrUnknownRide", err)
	}
	bk, _ := bookOne(t, e)
	// Wrong nodes: no such booking.
	if err := e.CancelBooking(bk.Ride, bk.DropoffNode, bk.PickupNode); err == nil {
		t.Fatal("swapped nodes must not identify a booking")
	}
	// Double cancellation.
	if err := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode); err != nil {
		t.Fatal(err)
	}
	if err := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode); err == nil {
		t.Fatal("double cancellation must fail")
	}
}

func TestCancelAfterPickupRejected(t *testing.T) {
	e := newTestEngine(t)
	bk, _ := bookOne(t, e)
	r := e.Ride(bk.Ride)
	// Drive the vehicle past the pickup.
	var puRouteIdx int
	for _, v := range r.Via {
		if v.Node == bk.PickupNode {
			puRouteIdx = v.RouteIdx
		}
	}
	if _, err := e.Track(bk.Ride, r.RouteETA[puRouteIdx]+1); err != nil {
		t.Fatal(err)
	}
	if r.Progress <= 0 {
		t.Skip("vehicle did not move; timing-dependent")
	}
	if r.Via[0].RouteIdx >= r.Progress {
		t.Skip("pickup still ahead; layout-dependent")
	}
	err := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode)
	if err == nil && r.Progress > puRouteIdx {
		t.Fatal("cancellation after pickup must be rejected")
	}
}

// TestCancelKeepsProgress: a ride tracked to between booking A's drop-off
// and booking B's pickup keeps the route it has driven when B is cancelled
// — what lies behind A's drop-off is not the cancellation's to touch. Resetting the
// progress listed the ride again in every cluster it had driven through
// (a request behind the vehicle matched it) and made the next Track
// journal A's rider a second time.
func TestCancelKeepsProgress(t *testing.T) {
	e, _ := newInstrumentedEngine(t, func(cfg *Config) {
		cfg.Journal = journal.New(journal.Config{})
	})
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, Seats: 4, DetourLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	book := func(from, to float64) Booking {
		t.Helper()
		req, ms := mustSearchAlong(t, e, e.Ride(id), from, to, 3600, 900)
		bk, err := e.Book(ms[0], req)
		if err != nil {
			t.Fatal(err)
		}
		return bk
	}
	a := book(0.1, 0.3)
	b := book(0.6, 0.8)
	behind := requestAlong(e, e.Ride(id), 0.05, 0.25, 3600, 600)
	if ms, err := e.Search(behind); err != nil || len(ms) == 0 {
		t.Fatalf("the request the vehicle will leave behind does not match before it does: %v, %d matches", err, len(ms))
	}

	// Drive to just past A's drop-off.
	r := e.Ride(id)
	viaIdx := func(node roadnet.NodeID, kind index.ViaKind) int {
		for _, v := range r.Via {
			if v.Node == node && v.Kind == kind {
				return v.RouteIdx
			}
		}
		t.Fatalf("no %v via-point at node %d", kind, node)
		return -1
	}
	aDrop, bPick := viaIdx(a.DropoffNode, index.ViaDropoff), viaIdx(b.PickupNode, index.ViaPickup)
	if aDrop+1 >= bPick {
		t.Fatalf("A's drop-off (route index %d) and B's pickup (%d) leave no room between them", aDrop, bPick)
	}
	if _, err := e.Track(id, r.RouteETA[aDrop+1]); err != nil {
		t.Fatal(err)
	}
	progress := e.Ride(id).Progress
	if progress <= aDrop || progress >= bPick {
		t.Fatalf("tracked to route index %d, want between %d and %d", progress, aDrop, bPick)
	}
	if ms, _ := e.Search(behind); len(ms) > 0 {
		t.Fatalf("the request behind the vehicle still matches before the cancellation: %+v", ms)
	}

	if err := e.CancelBooking(id, b.PickupNode, b.DropoffNode); err != nil {
		t.Fatal(err)
	}
	r = e.Ride(id)
	// The leg the vehicle was on (A's drop-off → B's pickup) is replaced, so
	// it is put back to the via-point that leg started at, and no further.
	if r.Progress != aDrop {
		t.Errorf("progress %d → %d across the cancellation, want A's drop-off at %d", progress, r.Progress, aDrop)
	}
	if ms, err := e.Search(behind); err != nil && err != ErrNotServable {
		t.Fatal(err)
	} else if len(ms) > 0 {
		t.Errorf("a request behind the vehicle matches the ride again after the cancellation: %+v", ms)
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Track(id, r.RouteETA[len(r.RouteETA)-1]); err != nil {
		t.Fatal(err)
	}
	counts := map[journal.EventType]int{}
	for _, ev := range e.Journal().Timeline(int64(id)) {
		counts[ev.Type]++
	}
	if counts[journal.PickedUp] != 1 || counts[journal.DroppedOff] != 1 || counts[journal.Cancelled] != 1 {
		t.Errorf("timeline of a ride that carried one rider: %v", counts)
	}
}
