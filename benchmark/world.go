package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"time"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/roadnet"
	"xar/internal/workload"
)

// Request and offer shaping, the paper's §X-A2 settings (sim.DefaultConfig).
const (
	walkLimitM    = 1000
	windowSlackS  = 900
	detourLimitM  = 2000
	seats         = 4
	epsilonM      = 1000
	trackEveryS   = 120
	tripStartHour = 6
	// citySeed is xarserver's default -seed. The city is the deployment,
	// the same for every run; the trips are the inputs --seed varies.
	citySeed = 42
)

// worldSpec fixes the generated inputs of one workload. Trips per hour
// per city cell is the density a workload is defined by; scaling a
// workload divides trips and hours together and leaves it unchanged.
type worldSpec struct {
	rows, cols int
	trips      int
	hours      float64
}

func (s worldSpec) scaled(div int) worldSpec {
	s.trips /= div
	s.hours /= float64(div)
	return s
}

// world is the generated input of a workload plus what building it cost.
type world struct {
	city  *roadnet.City
	disc  *discretize.Discretization
	trips []workload.Trip

	cityS, discS, tripsS float64
}

// buildWorld generates the city, its discretization (ε = 1000 m) and the
// time-ordered trip stream drawn from seed, the way experiments.BuildWorld
// and xarserver build theirs. A generator that only talks to a server needs
// no discretization of its own.
func buildWorld(spec worldSpec, seed int64, withDisc bool) (*world, error) {
	w := &world{}
	t0 := time.Now()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(spec.rows, spec.cols, citySeed))
	if err != nil {
		return nil, fmt.Errorf("generate city: %w", err)
	}
	w.city, w.cityS = city, time.Since(t0).Seconds()

	if withDisc {
		t0 = time.Now()
		dcfg := discretize.DefaultConfig()
		dcfg.Delta = epsilonM / 4
		if w.disc, err = discretize.Build(city, dcfg); err != nil {
			return nil, fmt.Errorf("build discretization: %w", err)
		}
		w.discS = time.Since(t0).Seconds()
	}

	t0 = time.Now()
	wcfg := workload.DefaultConfig(spec.trips, seed)
	wcfg.StartHour = tripStartHour
	wcfg.EndHour = tripStartHour + spec.hours
	box := city.Graph.BBox()
	wcfg.MaxTripDist = 0.9 * math.Min(12000, math.Max(box.HeightMeters(), box.WidthMeters()))
	if w.trips, err = workload.Generate(city, wcfg); err != nil {
		return nil, fmt.Errorf("generate trips: %w", err)
	}
	w.tripsS = time.Since(t0).Seconds()
	return w, nil
}

// inputsSHA256 fingerprints the generated inputs: city size and every
// trip. Two runs are comparable only when it agrees.
func (w *world) inputsSHA256() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(w.city.Graph.NumNodes()))
	put(uint64(w.city.Graph.NumEdges()))
	put(uint64(len(w.trips)))
	for _, t := range w.trips {
		put(math.Float64bits(t.Pickup.Lat))
		put(math.Float64bits(t.Pickup.Lng))
		put(math.Float64bits(t.Dropoff.Lat))
		put(math.Float64bits(t.Dropoff.Lng))
		put(math.Float64bits(t.RequestTime))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func requestOf(t workload.Trip) core.Request {
	return core.Request{
		Source:            t.Pickup,
		Dest:              t.Dropoff,
		EarliestDeparture: t.RequestTime,
		LatestDeparture:   t.RequestTime + windowSlackS,
		WalkLimit:         walkLimitM,
	}
}

func offerOf(t workload.Trip) core.RideOffer {
	return core.RideOffer{
		Source:      t.Pickup,
		Dest:        t.Dropoff,
		Departure:   t.RequestTime + windowSlackS/2,
		Seats:       seats,
		DetourLimit: detourLimitM,
	}
}

// domainRejection reports whether err is the engine declining an
// operation (ride full, match gone stale, point not servable) rather
// than failing: rejections are outcomes, not failures.
func domainRejection(err error) bool {
	for _, d := range []error{
		core.ErrNotServable, core.ErrUnreachable, core.ErrRideFull,
		core.ErrNoLongerFeasible, core.ErrDetourExceeded, core.ErrUnknownRide,
	} {
		if errors.Is(err, d) {
			return true
		}
	}
	return false
}
