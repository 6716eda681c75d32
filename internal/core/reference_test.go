package core

import (
	"math/rand"
	"testing"

	"xar/internal/geo"
	"xar/internal/index"
	"xar/internal/roadnet"
)

// referenceMatcher is the exhaustive ground-truth matcher DESIGN.md's
// testing strategy calls for: for every active ride it computes, with
// exact shortest paths and no index structures, whether the ride can
// serve the request — pickup/drop-off at the landmarks nearest the
// requester, exact splice detour within the ride's budget (+4ε, the
// system's allowance), walks within the limit, pickup inside the time
// window, pickup before drop-off, and a free seat.
type referenceMatcher struct {
	e *Engine
	s *roadnet.Searcher
}

func newReferenceMatcher(e *Engine) *referenceMatcher {
	return &referenceMatcher{e: e, s: roadnet.NewSearcher(e.disc.City().Graph)}
}

// feasible reports whether ride r can serve req according to the exact
// model, trying every (pickup cluster, drop-off cluster) pair within
// walking distance. allowance loosens the ride's detour budget: 0 gives
// the strict model (for recall), 4ε gives the approximation-aware model
// (for validity — the paper's guarantee lets the exact detour exceed the
// budget by up to 4ε).
func (rm *referenceMatcher) feasible(r *index.Ride, req Request, allowance float64) bool {
	d := rm.e.disc
	giS := d.Info(d.GridAt(req.Source))
	giD := d.Info(d.GridAt(req.Dest))
	if giS == nil || giD == nil {
		return false
	}
	if r.SeatsAvail <= 0 {
		return false
	}
	for _, ws := range giS.WalkableWithin(req.WalkLimit) {
		for _, wd := range giD.WalkableWithin(req.WalkLimit - ws.Walk) {
			puLM, _ := d.NearestLandmarkInCluster(req.Source, ws.Cluster)
			doLM, _ := d.NearestLandmarkInCluster(req.Dest, wd.Cluster)
			if puLM < 0 || doLM < 0 {
				continue
			}
			pu := d.Landmarks[puLM].Node
			do := d.Landmarks[doLM].Node
			if rm.insertionFeasible(r, pu, do, req, allowance) {
				return true
			}
		}
	}
	return false
}

// insertionFeasible tries every segment pair for the pickup and drop-off
// with exact shortest paths.
func (rm *referenceMatcher) insertionFeasible(r *index.Ride, pu, do roadnet.NodeID, req Request, allowance float64) bool {
	nSeg := r.NumSegments()
	for ps := 0; ps < nSeg; ps++ {
		if r.Via[ps].RouteIdx < r.Progress {
			continue
		}
		for ds := ps; ds < nSeg; ds++ {
			var detour float64
			if ps == ds {
				a, b := r.Via[ps].Node, r.Via[ps+1].Node
				d1 := rm.dist(a, pu)
				d2 := rm.dist(pu, do)
				d3 := rm.dist(do, b)
				dab := rm.dist(a, b)
				if d1 < 0 || d2 < 0 || d3 < 0 || dab < 0 {
					continue
				}
				detour = d1 + d2 + d3 - dab
			} else {
				a, b := r.Via[ps].Node, r.Via[ps+1].Node
				c, e := r.Via[ds].Node, r.Via[ds+1].Node
				d1 := rm.dist(a, pu)
				d2 := rm.dist(pu, b)
				d3 := rm.dist(c, do)
				d4 := rm.dist(do, e)
				dab := rm.dist(a, b)
				dce := rm.dist(c, e)
				if d1 < 0 || d2 < 0 || d3 < 0 || d4 < 0 || dab < 0 || dce < 0 {
					continue
				}
				detour = (d1 + d2 - dab) + (d3 + d4 - dce)
			}
			if detour < 0 {
				detour = 0
			}
			if detour > r.DetourLimit+allowance {
				continue
			}
			// Pickup time: segment start plus driving time to the pickup.
			pickupETA := r.Via[ps].ETA + rm.dist(r.Via[ps].Node, pu)/7.0
			if pickupETA < req.EarliestDeparture || pickupETA > req.LatestDeparture {
				continue
			}
			return true
		}
	}
	return false
}

func (rm *referenceMatcher) dist(a, b roadnet.NodeID) float64 {
	if a == b {
		return 0
	}
	res := rm.s.ShortestPath(a, b)
	if !res.Reachable() {
		return -1
	}
	return res.Dist
}

// TestSearchValidityAndRecallAgainstReference drives random requests
// against a loaded engine and cross-checks XAR's search with the
// exhaustive reference:
//
//   - validity: every XAR match must be feasible for the reference
//     (matches are never bogus — the paper's correctness claim);
//   - recall: XAR must find a large fraction of the rides the reference
//     deems feasible (the cluster approximation may legally miss some
//     borderline cases, but not many).
func TestSearchValidityAndRecallAgainstReference(t *testing.T) {
	e := newTestEngine(t)
	rng := rand.New(rand.NewSource(17))
	city := e.disc.City()
	for i := 0; i < 25; i++ {
		a := city.RandomPoint(rng)
		b := city.RandomPoint(rng)
		_, _ = e.CreateRide(RideOffer{
			Source: a, Dest: b,
			Departure:   float64(rng.Intn(1800)),
			DetourLimit: 1000 + float64(rng.Intn(1500)),
		})
	}
	if e.NumRides() < 10 {
		t.Fatalf("only %d rides", e.NumRides())
	}
	rm := newReferenceMatcher(e)

	var xarFound, refFound, bothFound, bogus int
	for trial := 0; trial < 60; trial++ {
		req := Request{
			Source:            city.RandomPoint(rng),
			Dest:              city.RandomPoint(rng),
			EarliestDeparture: 0,
			LatestDeparture:   3600,
			WalkLimit:         700 + rng.Float64()*300,
		}
		if geo.Haversine(req.Source, req.Dest) < 800 {
			continue
		}
		ms, err := e.Search(req)
		if err == ErrNotServable {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		matched := map[index.RideID]bool{}
		for _, m := range ms {
			matched[m.Ride] = true
		}
		allowance := 4 * e.Disc().Epsilon()
		e.Index().Rides(func(r *index.Ride) bool {
			if rm.feasible(r, req, 0) { // strict model → recall
				refFound++
				if matched[r.ID] {
					bothFound++
				}
			}
			if matched[r.ID] {
				xarFound++
				if !rm.feasible(r, req, allowance) { // loose model → validity
					bogus++
				}
			}
			return true
		})
	}
	// The fixture, the requests and the search are deterministic, so the
	// four counts are exact: 296 (ride, request) pairs the strict
	// reference deems feasible, 254 of them matched (recall 86 % — the
	// cluster approximation may legally miss borderline cases; EXPERIMENTS.md
	// E1 states the figure), 481 XAR matches in all — XAR's ordering and
	// ETA constraints use index estimates, and the loose reference grants
	// every one of them within 4ε — and none bogus, the paper's
	// correctness claim. A PR that moves any of the four says why.
	got := [4]int{refFound, bothFound, xarFound, bogus}
	if want := [4]int{296, 254, 481, 0}; got != want {
		t.Fatalf("reference feasible, recalled, XAR matches, bogus = %v, want %v", got, want)
	}
}
