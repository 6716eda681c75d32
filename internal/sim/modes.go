package sim

import (
	"fmt"

	"xar/internal/core"
	"xar/internal/index"
	"xar/internal/mmtp"
	"xar/internal/roadnet"
	"xar/internal/stats"
	"xar/internal/workload"
)

// ModeMetrics aggregates travel quality for one transportation mode, the
// quantities of the paper's Figure 6: end-to-end travel time, walking
// time, waiting time, and the number of cars needed to serve the demand.
type ModeMetrics struct {
	Mode       string
	TravelTime stats.Sample // minutes
	WalkTime   stats.Sample // minutes
	WaitTime   stats.Sample // minutes
	Cars       int
	Served     int
}

// CompareTaxi serves every trip with its own taxi: the dataset baseline.
func CompareTaxi(city *roadnet.City, trips []workload.Trip) ModeMetrics {
	m := ModeMetrics{Mode: "Taxi"}
	s := roadnet.NewSearcher(city.Graph)
	for _, tr := range trips {
		a, _ := city.SnapToNode(tr.Pickup)
		b, _ := city.SnapToNode(tr.Dropoff)
		if a == roadnet.InvalidNode || b == roadnet.InvalidNode || a == b {
			continue
		}
		res := s.ShortestPath(a, b)
		if !res.Reachable() {
			continue
		}
		t, err := city.Graph.TravelTime(res.Path)
		if err != nil {
			continue
		}
		m.TravelTime.Add(t / 60)
		m.WalkTime.Add(0)
		m.WaitTime.Add(2) // hail latency: a couple of minutes
		m.Cars++
		m.Served++
	}
	return m
}

// CompareRideShare replays the stream through a fresh XAR engine per the
// §X-A2 protocol and converts the outcome into traveller metrics.
func CompareRideShare(eng *core.Engine, trips []workload.Trip, simCfg Config) (ModeMetrics, error) {
	m := ModeMetrics{Mode: "RS"}
	sys := &XARSystem{Engine: eng}
	lastTrack := -1.0
	for _, trip := range trips {
		now := trip.RequestTime
		if lastTrack < 0 || now-lastTrack >= TrackInterval {
			sys.Advance(now)
			lastTrack = now
		}
		req := Request{
			Source: trip.Pickup, Dest: trip.Dropoff,
			Earliest: now, Latest: now + simCfg.WindowSlack,
			WalkLimit: simCfg.WalkLimit,
		}
		cands, err := sys.Search(req, simCfg.K)
		if err != nil {
			if isNotServable(err) {
				continue
			}
			return m, err
		}
		served := false
		for _, c := range cands {
			match, ok := c.Payload.(core.Match)
			if !ok {
				continue
			}
			br, berr := sys.Book(c, req)
			if berr != nil {
				continue
			}
			walkT := br.Walk / mmtp.WalkSpeed
			waitT := match.PickupETA - now
			if waitT < 0 {
				waitT = 0
			}
			rideT := match.DropoffETA - match.PickupETA
			if rideT < 0 {
				rideT = 0
			}
			m.TravelTime.Add((walkT + waitT + rideT) / 60)
			m.WalkTime.Add(walkT / 60)
			m.WaitTime.Add(waitT / 60)
			m.Served++
			served = true
			break
		}
		if served {
			continue
		}
		// Becomes a driver: own car, own shortest route.
		id, cerr := sys.Create(Offer{
			Source: trip.Pickup, Dest: trip.Dropoff,
			Departure: now + simCfg.WindowSlack/2, Seats: Seats,
			DetourLimit: simCfg.DetourLimit,
		})
		if cerr != nil {
			continue
		}
		m.Cars++
		if r := eng.Ride(index.RideID(id)); r != nil {
			dur := r.RouteETA[len(r.RouteETA)-1] - r.RouteETA[0]
			m.TravelTime.Add((simCfg.WindowSlack/2 + dur) / 60)
			m.WalkTime.Add(0)
			m.WaitTime.Add(simCfg.WindowSlack / 2 / 60)
			m.Served++
		}
	}
	return m, nil
}

// CompareTransit plans every trip on public transport alone.
func CompareTransit(planner *mmtp.Planner, trips []workload.Trip) ModeMetrics {
	m := ModeMetrics{Mode: "PT"}
	for _, tr := range trips {
		it, err := planner.Plan(tr.Pickup, tr.Dropoff, tr.RequestTime)
		if err != nil || it == nil {
			continue
		}
		m.TravelTime.Add(it.TravelTime() / 60)
		m.WalkTime.Add(it.WalkTime() / 60)
		m.WaitTime.Add(it.WaitTime() / 60)
		m.Served++
	}
	return m
}

// CompareTransitPlusRideShare runs the aider-mode integration (§IX-A):
// every trip is planned on transit; infeasible segments query XAR for a
// shared ride; segments that find none seed a new ride offer (the
// commuter drives that leg and offers the seats), so later requests can
// share it. Of cfg, only DetourLimit is read: the legs' searches use
// mmtp's Figure 6 setting.
func CompareTransitPlusRideShare(eng *core.Engine, planner *mmtp.Planner, trips []workload.Trip, cfg Config) (ModeMetrics, error) {
	m := ModeMetrics{Mode: "RS+PT"}
	sys := &XARSystem{Engine: eng}
	lastTrack := -1.0
	for _, tr := range trips {
		now := tr.RequestTime
		if lastTrack < 0 || now-lastTrack >= TrackInterval {
			sys.Advance(now)
			lastTrack = now
		}
		it, err := planner.Plan(tr.Pickup, tr.Dropoff, now)
		if err != nil || it == nil {
			continue
		}
		res, aerr := mmtp.Aider(it, eng)
		if aerr != nil {
			return m, fmt.Errorf("sim: aider failed: %w", aerr)
		}
		final := res.Itinerary
		// Unfixed infeasible segments: the commuter drives that leg and
		// offers it as a shared ride (new car on the road).
		if res.Infeasible > res.Replaced {
			for _, leg := range final.Legs {
				if !leg.Infeasible() {
					continue
				}
				if _, cerr := sys.Create(Offer{
					Source: leg.From, Dest: leg.To,
					Departure: leg.Start, Seats: Seats,
					DetourLimit: cfg.DetourLimit,
				}); cerr == nil {
					m.Cars++
				}
			}
		}
		m.TravelTime.Add(final.TravelTime() / 60)
		m.WalkTime.Add(final.WalkTime() / 60)
		m.WaitTime.Add(final.WaitTime() / 60)
		m.Served++
	}
	return m, nil
}
