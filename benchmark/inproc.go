package main

import (
	"fmt"
	"runtime"
	"time"

	"xar/internal/core"
	"xar/internal/memsize"
	"xar/internal/quality"
	"xar/internal/workload"
)

// The in-process workloads share one 80×44 city (3 520 nodes, ≈1 700
// landmarks, ≈340 clusters at ε = 1000 m) and run on one goroutine, so
// that every counter repeats exactly.
//
// replay_city is the paper's §X-A2 replay at its density of 10 000 trips
// an hour; the two search workloads draw 50 000 trips over six hours and
// differ only in which of them seed the frozen fleet.
var (
	replayWorld = worldSpec{rows: 80, cols: 44, trips: 12000, hours: 1.2}
	searchWorld = worldSpec{rows: 80, cols: 44, trips: 50000, hours: 6}
)

// searchSpec is one of the two read-only workloads.
type searchSpec struct {
	// split partitions the trip stream into the rides that seed the
	// fleet and the requests searched against it.
	split func(trips []workload.Trip) (seed, reqs []workload.Trip)
	// searches is the fixed work of one round: that many requests,
	// evenly strided over the request stream.
	searches int
	// books is the size of the booking tail that follows the round.
	books int
}

var searchSpecs = map[string]searchSpec{
	// Every 5th trip seeds a ride, so rides and requests cover the same
	// six hours: ≈80 matches a search.
	"search_dense": {
		split: func(trips []workload.Trip) (seed, reqs []workload.Trip) {
			for i, t := range trips {
				if i%5 == 0 {
					seed = append(seed, t)
				} else {
					reqs = append(reqs, t)
				}
			}
			return seed, reqs
		},
		searches: 4000,
		books:    300,
	},
	// The earliest fifth seeds the fleet and the later four fifths are
	// requests (the split bench_test.go uses): ≈7 % of searches match.
	"search_sparse": {
		split: func(trips []workload.Trip) (seed, reqs []workload.Trip) {
			n := len(trips) / 5
			return trips[:n], trips[n:]
		},
		searches: 40000,
		books:    300,
	},
}

// instance is one set-up and its fixed-work round, kept whole so the
// traced pass can probe the layers on the engine the round left behind.
type instance struct {
	s    *sample
	w    *world
	eng  *core.Engine
	reqs []workload.Trip // the requests of the measured phase
}

// engineConfig is core.DefaultConfig — default shards, default router, no
// observers. The traced pass alone sets Config.Quality, which makes the
// engine count the candidates a search examines.
func engineConfig(traced bool) core.Config {
	cfg := core.DefaultConfig()
	if traced {
		cfg.Quality = quality.New(nil)
	}
	return cfg
}

// settle collects set-up garbage so the measured phase starts from the
// same heap every time.
func settle() { runtime.GC() }

// memDelta is what the Go runtime did over a measured phase.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	heapInuse      uint64 // at the end of the phase
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 *runtime.MemStats) memDelta {
	m := readMem()
	return memDelta{
		mallocs:   m.Mallocs - m0.Mallocs,
		bytes:     m.TotalAlloc - m0.TotalAlloc,
		gcCycles:  m.NumGC - m0.NumGC,
		gcPauseNs: m.PauseTotalNs - m0.PauseTotalNs,
		heapInuse: m.HeapInuse,
	}
}

func replayInstance(seed int64, div int, rec *recorder) (*instance, error) {
	t0 := time.Now()
	w, err := buildWorld(replayWorld.scaled(div), seed, true)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(w.disc, engineConfig(rec != nil))
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	n := len(w.trips)
	s := newSample([numKinds]int{kSearch: n, kBook: n, kCreate: n, kTrack: n})
	s.setupS = time.Since(t0).Seconds()
	settle()

	ops := newEngineOps(eng, rec, s)
	c0 := eng.Metrics().CandidatesExamined
	lastTrack := -1.0
	m0, cpu0 := readMem(), processCPUSeconds()
	start := clock()
	for i, trip := range w.trips {
		u := ops.begin(i)
		if lastTrack < 0 || trip.RequestTime-lastTrack >= trackEveryS {
			ops.trackAll(trip.RequestTime)
			lastTrack = trip.RequestTime
		}
		req := requestOf(trip)
		booked := false
		for _, m := range ops.search(req, 0) { // least walk first
			if _, booked = ops.book(m, req); booked {
				s.served++
				break
			}
		}
		if !booked {
			ops.create(offerOf(trip))
		}
		ops.end(u)
	}
	s.wallS = float64(clock()-start) / 1e9
	s.units = n
	s.mem, s.cpuS = memSince(&m0), processCPUSeconds()-cpu0
	s.candidates = eng.Metrics().CandidatesExamined - c0
	finishEngine(eng, s)
	return &instance{s: s, w: w, eng: eng, reqs: w.trips}, nil
}

func searchInstance(spec searchSpec, seed int64, div int, rec *recorder) (*instance, error) {
	t0 := time.Now()
	w, err := buildWorld(searchWorld.scaled(div), seed, true)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(w.disc, engineConfig(rec != nil))
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	seedTrips, all := spec.split(w.trips)
	nreq := spec.searches / div
	reqs := make([]workload.Trip, 0, nreq)
	for i := 0; i < nreq; i++ {
		reqs = append(reqs, all[i*len(all)/nreq])
	}
	s := newSample([numKinds]int{kSearch: nreq, kBook: spec.books, kCreate: len(seedTrips)})
	ops := newEngineOps(eng, rec, s)

	// Seed the fleet (never tracked, so it stays frozen) and fill the
	// lazily computed per-grid attributes of every request endpoint.
	ops.setPhase("setup.")
	for i, trip := range seedTrips {
		u := ops.begin(-1 - i)
		ops.create(offerOf(trip))
		ops.end(u)
	}
	for _, trip := range reqs {
		w.disc.Info(w.disc.GridAt(trip.Pickup))
		w.disc.Info(w.disc.GridAt(trip.Dropoff))
	}
	s.setupS = time.Since(t0).Seconds()
	settle()

	ops.setPhase("core.")
	c0 := eng.Metrics().CandidatesExamined
	m0, cpu0 := readMem(), processCPUSeconds()
	start := clock()
	for i, trip := range reqs {
		u := ops.begin(i)
		ops.search(requestOf(trip), 0)
		ops.end(u)
	}
	s.wallS = float64(clock()-start) / 1e9
	s.units = nreq
	s.mem, s.cpuS = memSince(&m0), processCPUSeconds()-cpu0
	s.candidates = eng.Metrics().CandidatesExamined - c0
	return &instance{s: s, w: w, eng: eng, reqs: reqs}, nil
}

// bookingTail lets the first requests that still find a match book their
// least-walk option, which is where book latency on a search workload
// comes from. It mutates the fleet, so it runs once, after everything
// that needs the fleet frozen.
func bookingTail(in *instance, books int, rec *recorder) {
	ops := newEngineOps(in.eng, rec, in.s)
	ops.setPhase("tail.")
	for i, trip := range in.reqs {
		if len(in.s.lat[kBook]) == books {
			break
		}
		req := requestOf(trip)
		if ms := ops.lookup(req); len(ms) > 0 {
			u := ops.begin(len(in.reqs) + i)
			ops.book(ms[0], req)
			ops.end(u)
		}
	}
	finishEngine(in.eng, in.s)
}

// indexBytesPerRide is the paper's Figure 3c quantity: the deep size of
// the index over the active rides. The engine must be quiescent.
func indexBytesPerRide(eng *core.Engine) float64 {
	return ratio(float64(memsize.Of(eng.Index())), float64(eng.NumRides()))
}
