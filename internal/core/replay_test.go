package core

import (
	"testing"

	"xar/internal/index"
	"xar/internal/workload"
)

// TestReplaySearchEqualsReference drives one engine through a 2 000-trip
// history in the shape of the paper's replay — track on the trips' clock,
// search, book the best match or else offer a ride, and cancel some of the
// bookings that took a ride's last seat — and compares every search, match
// for match and in order, with referenceSearch: the exhaustive matcher
// over the schedules of the rides that have a free seat, which reads no
// posting list. Rides fill, leave the lists, are tracked while full and
// come back on a cancellation; rides booked after being tracked are
// registered from mid-route (regFrom).
func TestReplaySearchEqualsReference(t *testing.T) {
	e := newTestEngine(t)
	wcfg := workload.DefaultConfig(2000, 17)
	wcfg.StartHour, wcfg.EndHour = 8, 10
	trips, err := workload.Generate(e.disc.City(), wcfg)
	if err != nil {
		t.Fatal(err)
	}

	regFrom := map[index.RideID]int{}
	var filling []Booking // bookings that took a ride's last seat, oldest first
	lastTrack := 0.0
	var searches, matched, whileFull, relisted, midRoute int
	for i, trip := range trips {
		now := trip.RequestTime
		if now-lastTrack >= 120 {
			if _, err := e.TrackAll(now); err != nil {
				t.Fatal(err)
			}
			lastTrack = now
		}
		// Every fourth trip first hands back the oldest last seat taken, if
		// its rider has not been picked up yet.
		if i%4 == 0 && len(filling) > 0 {
			bk := filling[0]
			filling = filling[1:]
			if e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode) == nil {
				regFrom[bk.Ride] = e.Ride(bk.Ride).Progress // a cancellation keeps the vehicle's place
				relisted++
			}
		}

		req := Request{
			Source: trip.Pickup, Dest: trip.Dropoff,
			EarliestDeparture: now, LatestDeparture: now + 900,
			WalkLimit: 1000,
		}
		got, err := e.Search(req)
		if err == ErrNotServable {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want, _ := referenceSearch(t, e, req, regFrom)
		if !equalReference(e, got, want) {
			t.Fatalf("trip %d: search returned %d matches, reference %d\n got  %+v\n want %+v", i, len(got), len(want), got, want)
		}
		searches++
		if e.Index().Stats().FullRides > 0 {
			whileFull++
		}

		if len(got) == 0 {
			// Departing soon, so that later bookings find the ride under way.
			_, _ = e.CreateRide(RideOffer{Source: trip.Pickup, Dest: trip.Dropoff, Departure: now + 120})
			continue
		}
		matched++
		bk, err := e.Book(got[0], req)
		if err != nil {
			continue // the exact detour did not fit: the trip goes unserved
		}
		r := e.Ride(bk.Ride)
		if regFrom[bk.Ride] = r.Progress; r.Progress > 0 {
			midRoute++
		}
		if r.SeatsAvail == 0 {
			filling = append(filling, bk)
		}
		if i%250 == 0 {
			if err := e.Index().CheckInvariants(); err != nil {
				t.Fatalf("trip %d: %v", i, err)
			}
		}
	}
	if err := e.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d searches, %d matched, %d ran beside a full ride, %d full rides re-listed by a cancellation, %d bookings re-registered a ride mid-route",
		searches, matched, whileFull, relisted, midRoute)
	if matched < searches/4 || whileFull < searches/2 || relisted < 20 || midRoute < 10 {
		t.Fatal("the history does not exercise full rides, cancellations and mid-route registration enough to mean anything")
	}
}
