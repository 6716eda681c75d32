// Package workload generates the ride-request streams the experiments
// run on. The paper replays 350,000 NYC taxi trips from 2013-03-07; that
// dataset is not redistributable, so this generator synthesizes a demand
// stream with the same spatio-temporal shape: an AM/PM-peaked time-of-day
// profile, hotspot-concentrated origins and destinations (midtown-heavy),
// and trip lengths matching Manhattan taxi statistics (median ≈ 2–3 km).
// Generation is deterministic per seed.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"xar/internal/geo"
	"xar/internal/roadnet"
)

// Trip is one taxi trip / ride request: a pickup location, a drop-off
// location and a request time (seconds of day).
type Trip struct {
	ID          int
	Pickup      geo.Point
	Dropoff     geo.Point
	RequestTime float64
}

// hotspot is a demand center: trips originate/terminate near hotspots
// with probability proportional to weight, scattered with a Gaussian of
// the given sigma (meters).
type hotspot struct {
	center geo.Point
	weight float64
	sigma  float64
}

// Config parameterizes generation.
type Config struct {
	// NumTrips is the stream length.
	NumTrips int
	// Seed makes the stream deterministic.
	Seed int64
	// UniformFrac is the fraction of trip endpoints drawn uniformly from
	// the city instead of from its midtown-heavy hotspots (background
	// demand).
	UniformFrac float64
	// MaxTripDist bounds straight-line trip lengths in meters from above
	// (rejection sampling); minTripDist bounds them from below.
	MaxTripDist float64
	// StartHour / EndHour bound request times (hours of day).
	StartHour, EndHour float64
}

// DefaultConfig returns an NYC-shaped configuration for n trips.
func DefaultConfig(n int, seed int64) Config {
	return Config{
		NumTrips:    n,
		Seed:        seed,
		UniformFrac: 0.3,
		MaxTripDist: 12000,
		StartHour:   0,
		EndHour:     24,
	}
}

// minTripDist is the shortest straight-line trip in meters: shorter
// trips are walked, not hailed.
const minTripDist = 800.0

// nycHourlyProfile approximates NYC taxi pickup counts by hour: a morning
// ramp, lunchtime plateau, evening peak, late-night tail.
var nycHourlyProfile = [24]float64{
	1.2, 0.8, 0.6, 0.4, 0.3, 0.5, // 00–05
	1.2, 2.2, 3.0, 2.8, 2.4, 2.4, // 06–11
	2.6, 2.5, 2.6, 2.4, 2.2, 2.8, // 12–17
	3.4, 3.6, 3.2, 2.8, 2.4, 1.8, // 18–23
}

// Generate produces a time-sorted trip stream over the city. It fails on
// degenerate configurations rather than looping forever in rejection
// sampling.
func Generate(city *roadnet.City, cfg Config) ([]Trip, error) {
	if cfg.NumTrips <= 0 {
		return nil, fmt.Errorf("workload: NumTrips must be positive, got %d", cfg.NumTrips)
	}
	if cfg.MaxTripDist <= minTripDist {
		return nil, fmt.Errorf("workload: invalid trip distance bounds [%v, %v]", minTripDist, cfg.MaxTripDist)
	}
	if cfg.UniformFrac < 0 || cfg.UniformFrac > 1 {
		return nil, fmt.Errorf("workload: UniformFrac %v out of [0,1]", cfg.UniformFrac)
	}
	if cfg.EndHour <= cfg.StartHour || cfg.StartHour < 0 || cfg.EndHour > 24 {
		return nil, fmt.Errorf("workload: invalid hour window [%v, %v]", cfg.StartHour, cfg.EndHour)
	}
	box := city.Graph.BBox()
	diag := geo.Haversine(
		geo.Point{Lat: box.MinLat, Lng: box.MinLng},
		geo.Point{Lat: box.MaxLat, Lng: box.MaxLng},
	)
	if minTripDist >= diag {
		return nil, fmt.Errorf("workload: minimum trip distance %v exceeds city diagonal %v", minTripDist, diag)
	}

	hotspots := midtownHotspots(city)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampler := newHourSampler(nycHourlyProfile, cfg.StartHour, cfg.EndHour)
	totalW := 0.0
	for _, h := range hotspots {
		totalW += h.weight
	}

	samplePoint := func() geo.Point {
		if totalW == 0 || rng.Float64() < cfg.UniformFrac {
			return randomInBox(rng, box)
		}
		x := rng.Float64() * totalW
		for _, h := range hotspots {
			if x -= h.weight; x <= 0 {
				return gaussianAround(rng, h.center, h.sigma, box)
			}
		}
		return randomInBox(rng, box)
	}

	trips := make([]Trip, 0, cfg.NumTrips)
	for i := 0; i < cfg.NumTrips; i++ {
		var pu, do geo.Point
		ok := false
		for attempt := 0; attempt < 200; attempt++ {
			pu = samplePoint()
			do = samplePoint()
			d := geo.Haversine(pu, do)
			if d >= minTripDist && d <= cfg.MaxTripDist {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("workload: rejection sampling failed for trip %d; distance bounds incompatible with the city", i)
		}
		trips = append(trips, Trip{
			ID:          i,
			Pickup:      pu,
			Dropoff:     do,
			RequestTime: sampler.sample(rng),
		})
	}
	sort.Slice(trips, func(i, j int) bool {
		if trips[i].RequestTime != trips[j].RequestTime {
			return trips[i].RequestTime < trips[j].RequestTime
		}
		return trips[i].ID < trips[j].ID
	})
	return trips, nil
}

// midtownHotspots derives a midtown-heavy hotspot set from the city's
// extents: a dominant center (midtown), a strong south pole (downtown /
// financial district), and a weaker north pole (uptown).
func midtownHotspots(city *roadnet.City) []hotspot {
	box := city.Graph.BBox()
	at := func(fracN, fracE float64) geo.Point {
		return geo.Point{
			Lat: box.MinLat + fracN*(box.MaxLat-box.MinLat),
			Lng: box.MinLng + fracE*(box.MaxLng-box.MinLng),
		}
	}
	scale := box.HeightMeters()
	return []hotspot{
		{center: at(0.60, 0.50), weight: 3.0, sigma: scale * 0.10}, // midtown
		{center: at(0.15, 0.45), weight: 2.0, sigma: scale * 0.08}, // downtown
		{center: at(0.85, 0.55), weight: 1.0, sigma: scale * 0.10}, // uptown
	}
}

func randomInBox(rng *rand.Rand, box geo.BBox) geo.Point {
	return geo.Point{
		Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
		Lng: box.MinLng + rng.Float64()*(box.MaxLng-box.MinLng),
	}
}

func gaussianAround(rng *rand.Rand, center geo.Point, sigma float64, box geo.BBox) geo.Point {
	for attempt := 0; attempt < 20; attempt++ {
		north := rng.NormFloat64() * sigma
		east := rng.NormFloat64() * sigma
		p := geo.Destination(geo.Destination(center, 0, north), 90, east)
		if box.Contains(p) {
			return p
		}
	}
	return center
}

// hourSampler draws request times from a piecewise-constant hourly
// intensity restricted to [startHour, endHour).
type hourSampler struct {
	cum       []float64 // cumulative weight per included hour
	hours     []int
	startHour float64
}

func newHourSampler(weights [24]float64, startHour, endHour float64) *hourSampler {
	s := &hourSampler{startHour: startHour}
	total := 0.0
	for h := int(startHour); h < int(endHour+0.999) && h < 24; h++ {
		w := weights[h]
		if w <= 0 {
			w = 1e-9
		}
		total += w
		s.cum = append(s.cum, total)
		s.hours = append(s.hours, h)
	}
	return s
}

func (s *hourSampler) sample(rng *rand.Rand) float64 {
	total := s.cum[len(s.cum)-1]
	x := rng.Float64() * total
	i := sort.SearchFloat64s(s.cum, x)
	if i >= len(s.hours) {
		i = len(s.hours) - 1
	}
	return float64(s.hours[i])*3600 + rng.Float64()*3600
}

// Stats summarizes a trip stream for logging and sanity tests.
type Stats struct {
	N            int
	MeanDist     float64
	MedianDist   float64
	PeakHour     int
	PeakHourFrac float64
}

// Summarize computes stream statistics.
func Summarize(trips []Trip) Stats {
	if len(trips) == 0 {
		return Stats{}
	}
	dists := make([]float64, len(trips))
	var sum float64
	var perHour [24]int
	for i, t := range trips {
		dists[i] = geo.Haversine(t.Pickup, t.Dropoff)
		sum += dists[i]
		h := int(t.RequestTime/3600) % 24
		perHour[h]++
	}
	sort.Float64s(dists)
	peak, peakN := 0, 0
	for h, n := range perHour {
		if n > peakN {
			peak, peakN = h, n
		}
	}
	return Stats{
		N:            len(trips),
		MeanDist:     sum / float64(len(trips)),
		MedianDist:   dists[len(dists)/2],
		PeakHour:     peak,
		PeakHourFrac: float64(peakN) / float64(len(trips)),
	}
}
