package xar

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"xar/internal/cluster"
	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/experiments"
	"xar/internal/geo"
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/quality"
	"xar/internal/server"
	"xar/internal/sim"
	"xar/internal/telemetry"
	"xar/internal/workload"
)

// writeOps is how many creates and bookings the write-path counts
// average over. Posting-list and ride-map growth is amortized across
// the run, so a mean is exact only at a fixed count.
const writeOps = 2000

// serverOps is how many requests each server allocation count sends, a
// multiple of traceSample: the tracer head-samples by sequence number,
// so the sequence holds a whole number of sampling periods.
const (
	traceSample = 64 // xarserver's default -trace-sample
	serverOps   = 32 * traceSample
)

// TestExactWorkCounts holds the engine's work to exact counts on the
// benchmark world. None depends on the machine: a search allocates only
// the slice it returns, create and book allocate a fixed handful each,
// a replay's candidates per search and shortest paths per booking (≤ 4
// by the paper's splice, §VIII-B) are counters of a deterministic run,
// and so are the distances GREEDYSEARCH evaluates on the world's
// landmarks. The server counts add the HTTP layer — codec, middleware
// and the observers xarserver wires by default — on top of the engine's.
// A change that moves one changes its constant here and says why.
func TestExactWorkCounts(t *testing.T) {
	w := world(t)

	t.Run("search_dense_allocs", func(t *testing.T) {
		skipUnderRace(t)
		pinRuntime(t)
		eng, reqs := denseFleet(t, w)
		var m mallocMeter
		m.StartTimer()
		for _, req := range reqs {
			_, _ = eng.Search(req)
		}
		m.StopTimer()
		wantAllocs(t, m.mean(len(reqs)), 1) // the returned slice
	})
	t.Run("dense_index_bytes_per_ride", func(t *testing.T) {
		// The memory registry's index component: the index's own deep
		// size, the discretization and the graph it points at left out.
		eng, _ := denseFleet(t, w)
		rep := eng.MemSweep()
		// 3 232.284 with posting blocks of up to 512 tuples grown by
		// append, no fences and the lower half of a split left in the full
		// block's columns (half of them spare for good where rides arrive
		// in time order); 3 290.436 with a per-ride average speed (8 B)
		// and the index's config and ID counter (24 B over the 1 000
		// rides) besides; 4 142.588 with 24-byte supports besides;
		// 3 282.412 with register's build records at 24 bytes, grown by
		// append one at a time (the scratch's capacity counts); 3 275.676
		// with a stored crossed flag on each pass-through run (a 32-byte
		// run where it is now 24); 3 212.340 with each support record's
		// distance stored beside its run (16 bytes a record where it is
		// now 12, in two columns).
		wantRounded(t, float64(rep.IndexBytes)/float64(rep.ActiveRides), 2784.336)
	})
	t.Run("region_bytes", func(t *testing.T) {
		// The memory registry's discretization component: the region's
		// own deep size, the graph it points at left out. 660 252 with the
		// landmark table resident as 226 float32 rows, where it is now one
		// block of 16-bit entries.
		eng, err := w.NewXAREngine()
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for _, c := range eng.MemSweep().Components {
			if c.Name == "discretization" {
				got = c.Bytes
			}
		}
		if got != 552684 {
			t.Errorf("discretization component %d B, want 552 684", got)
		}
	})
	t.Run("create_allocs", func(t *testing.T) {
		skipUnderRace(t)
		pinRuntime(t)
		eng, err := w.NewXAREngine()
		if err != nil {
			t.Fatal(err)
		}
		sys := &sim.XARSystem{Engine: eng}
		var m mallocMeter
		m.StartTimer()
		offerEach(sys, w)
		m.StopTimer()
		wantAllocs(t, m.mean(writeOps), 7)
	})
	t.Run("register_work", func(t *testing.T) {
		// What index.register wrote for create_allocs' creates: a kernel
		// that drops, adds or double-counts a record moves a count.
		eng, err := w.NewXAREngine()
		if err != nil {
			t.Fatal(err)
		}
		offerEach(&sim.XARSystem{Engine: eng}, w)
		st := eng.Index().Stats()
		if st.SupportRecords != 210672 || st.ListEntries != 58283 || st.PassThroughRuns != 10697 {
			t.Errorf("%d support records, %d list entries, %d pass-through runs; want 210 672, 58 283, 10 697",
				st.SupportRecords, st.ListEntries, st.PassThroughRuns)
		}
	})
	t.Run("book_allocs", func(t *testing.T) {
		skipUnderRace(t)
		pinRuntime(t)
		sys, requests := seededXAR(t, w)
		var m mallocMeter
		m.StartTimer()
		bookLoop(&m, writeOps, w, sys, requests, xarRetire(sys))
		m.StopTimer()
		// 11 when a booking's snapshot cloned the route and the schedule.
		wantAllocs(t, m.mean(writeOps), 9)
	})

	t.Run("write_work", func(t *testing.T) {
		// What the write path did, in units no machine changes: the
		// posting-list edits' tuples, shifts, splits and search probes
		// (index.WriteWork) and the nodes the path searches labelled, on
		// create_allocs' 2 000 creates, across book_allocs' 2 000
		// bookings, and across the first 300 bookings on the dense fleet.
		// With 512-tuple blocks and no fences the three read shifts
		// 2 342 683, 87 816 and 1 484 323 (4 948 a dense booking, 5.8×
		// today's 852), splits 90, 0 and 0, probes 479 319, 403 456 and
		// 75 994 (9.78 an edit on the dense fleet, 9.27 today); most lists
		// of the booking world are shorter than a block either way.
		check := func(what string, got index.WriteWork, labels uint64, want index.WriteWork, wantLabels uint64) {
			t.Helper()
			if got != want || labels != wantLabels {
				t.Errorf("%s: %+v and %d labelled nodes, want %+v and %d", what, got, labels, want, wantLabels)
			}
		}
		eng, err := w.NewXAREngine()
		if err != nil {
			t.Fatal(err)
		}
		offerEach(&sim.XARSystem{Engine: eng}, w)
		check("create", eng.Index().WriteWork(), eng.Metrics().CreateLabels,
			index.WriteWork{Edits: 58283, Shifted: 523506, Splits: 661, Probes: 468879}, 81823)

		sys, requests := seededXAR(t, w)
		wm := workMeter{eng: sys.Engine}
		wm.StartTimer()
		bookLoop(&wm, writeOps, w, sys, requests, xarRetire(sys))
		wm.StopTimer()
		check("book", wm.work, wm.labels, index.WriteWork{Edits: 51957, Shifted: 87727, Probes: 373087}, 140629)

		dense, reqs := denseFleet(t, w)
		dm := workMeter{eng: dense}
		books := 0
		for _, req := range reqs {
			if books == denseBooks {
				break
			}
			if ms, _ := dense.SearchK(req, 0); len(ms) > 0 {
				dm.StartTimer()
				_, _ = dense.Book(ms[0], req)
				dm.StopTimer()
				books++
			}
		}
		check("dense book", dm.work, dm.labels, index.WriteWork{Edits: 7769, Shifted: 255676, Splits: 2, Probes: 72032}, 20841)
	})

	t.Run("greedy_dist_evals", func(t *testing.T) {
		exact, _, err := discretize.LandmarkTable(w.Disc.City().Graph, w.Disc.Landmarks)
		if err != nil {
			t.Fatal(err)
		}
		dist, lower := discretize.LandmarkMetric(exact)
		evals := 0
		counted := func(i, j int) float64 { evals++; return dist(i, j) }
		if _, _, err := cluster.GreedySearchBounded(len(w.Disc.Landmarks), counted, lower, w.Disc.Config().Delta); err != nil {
			t.Fatal(err)
		}
		// 36 612 = n·(largest k probed + k*) if a pass evaluates every
		// item instead of what the triangle inequality leaves open.
		if evals != 2507 {
			t.Errorf("%d distance evaluations, want 2507", evals)
		}
	})

	t.Run("server_search_allocs", func(t *testing.T) {
		skipUnderRace(t)
		pinRuntime(t)
		_, h, requests := shippedServer(t, w)
		var m mallocMeter
		for i := 0; i < serverOps; i++ {
			serve(t, &m, h, "/v1/search", searchBody(w, requests, i))
		}
		wantAllocs(t, m.mean(serverOps), 23)
	})
	t.Run("server_create_allocs", func(t *testing.T) {
		skipUnderRace(t)
		pinRuntime(t)
		_, h, _ := shippedServer(t, w)
		var m mallocMeter
		for i := 0; i < serverOps; i++ {
			trip := w.Trips[i%len(w.Trips)]
			serve(t, &m, h, "/v1/rides", server.CreateRideRequest{
				Source: pointJSON(trip.Pickup), Dest: pointJSON(trip.Dropoff),
				Departure: trip.RequestTime, Seats: 4, DetourLimit: w.Scale.DetourLimit,
			})
		}
		wantAllocs(t, m.mean(serverOps), 33)
	})
	t.Run("server_book_allocs", func(t *testing.T) {
		skipUnderRace(t)
		pinRuntime(t)
		eng, h, requests := shippedServer(t, w)
		var m mallocMeter
		// bookLoop's protocol: a request with no match becomes a driver.
		// Searches and creates go to the engine, outside the count.
		for i, sent := 0, 0; sent < serverOps; i++ {
			req := benchRequest(w, requests, i)
			ms, _ := eng.SearchK(core.Request{
				Source: req.Source, Dest: req.Dest,
				EarliestDeparture: req.Earliest, LatestDeparture: req.Latest, WalkLimit: req.WalkLimit,
			}, 1)
			if len(ms) == 0 {
				_, _ = eng.CreateRide(core.RideOffer{
					Source: req.Source, Dest: req.Dest,
					Departure: req.Earliest + (req.Latest-req.Earliest)/2,
					Seats:     4, DetourLimit: w.Scale.DetourLimit,
				})
				continue
			}
			serve(t, &m, h, "/v1/bookings", server.BookRequest{
				Match: server.MatchJSON{
					RideID: int64(ms[0].Ride), PickupCluster: ms[0].PickupCluster, DropoffCluster: ms[0].DropoffCluster,
				},
				Request: searchBody(w, requests, i),
			})
			sent++
		}
		// 42 when a booking's snapshot cloned the route and the schedule.
		wantAllocs(t, m.mean(serverOps), 40)
	})

	replay := sync.OnceValues(func() (replayCounts, error) { return replayMetrics(w) })
	t.Run("replay_candidates_per_search", func(t *testing.T) {
		rc, err := replay()
		if err != nil {
			t.Fatal(err)
		}
		m := rc.engine
		// 53.99 if full rides get back into the posting lists.
		wantRounded(t, float64(m.CandidatesExamined)/float64(m.Searches), 3.929)
	})
	t.Run("replay_paths_per_book", func(t *testing.T) {
		rc, err := replay()
		if err != nil {
			t.Fatal(err)
		}
		m := rc.engine
		// 3.485 if a splice searches a leg the old route already holds.
		wantRounded(t, float64(m.ShortestPaths-m.RidesCreated)/float64(m.Bookings), 2.821)
	})
	t.Run("replay_refused_per_book", func(t *testing.T) {
		rc, err := replay()
		if err != nil {
			t.Fatal(err)
		}
		// A refusal is a match the search offered that Book then turned
		// down. The replay has no other writer, so every one is the
		// cluster approximation offering what the exact splice refuses.
		if rc.refused != 16 || rc.engine.Bookings != 1494 {
			t.Errorf("%d refused per %d confirmed bookings, want 16 per 1 494 (0.011)", rc.refused, rc.engine.Bookings)
		}
	})
}

// denseBooks is how many bookings write_work makes on the dense fleet:
// the repository benchmark's search_dense booking tail, the first
// requests that find a match, each booking its first.
const denseBooks = 300

// workMeter sums the posting-list work and the booking path searches'
// labelled nodes an engine does while it runs.
type workMeter struct {
	eng        *core.Engine
	w0, work   index.WriteWork
	l0, labels uint64
}

func (m *workMeter) StartTimer() { m.w0, m.l0 = m.eng.Index().WriteWork(), m.eng.Metrics().BookLabels }

func (m *workMeter) StopTimer() {
	w := m.eng.Index().WriteWork()
	m.work.Edits += w.Edits - m.w0.Edits
	m.work.Shifted += w.Shifted - m.w0.Shifted
	m.work.Splits += w.Splits - m.w0.Splits
	m.work.Probes += w.Probes - m.w0.Probes
	m.labels += m.eng.Metrics().BookLabels - m.l0
}

// offerEach offers the world's trips to sys one at a time, writeOps of
// them, cycling through the trip list.
func offerEach(sys *sim.XARSystem, w *experiments.World) {
	for i := 0; i < writeOps; i++ {
		offerAll(sys, w, w.Trips[i%len(w.Trips):][:1])
	}
}

// shippedServer is xarserver's request path over an engine seeded with
// the world's offers. It wires the observers xarserver runs by default
// on a request: telemetry, the 1-in-64 tracer, the journal and the
// quality funnel. The shadow matcher, memory sweeps, the flight recorder
// and the auditor work off the request path, and the slow-op log and
// the access log write nothing here, so none is wired.
func shippedServer(t *testing.T, w *experiments.World) (*core.Engine, http.Handler, []workload.Trip) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.TracerConfig{
		SampleRate:    traceSample,
		SlowThreshold: 50 * time.Millisecond, // xarserver's default -trace-slow-ms
	})
	jr := journal.New(journal.Config{Registry: reg})
	qc := quality.New(reg)
	cfg := core.DefaultConfig()
	cfg.DefaultDetourLimit = w.Scale.DetourLimit
	cfg.Telemetry, cfg.Tracer, cfg.Journal, cfg.Quality = reg, tracer, jr, qc
	eng, err := core.NewEngine(w.Disc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	offers, requests := w.SplitOffersRequests()
	offerAll(&sim.XARSystem{Engine: eng}, w, offers)
	srv := server.New(eng, core.NewSocialGraph(), server.WithTelemetry(reg),
		server.WithTracer(tracer), server.WithJournal(jr), server.WithQuality(qc))
	return eng, srv.Handler(), requests
}

// serve POSTs body to path through h with m running only across the
// handler: the request and its recorder are built, and the reply
// checked, with m stopped. Any status below 500 is an answer.
func serve(t *testing.T, m *mallocMeter, h http.Handler, path string, body any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	m.StartTimer()
	h.ServeHTTP(rec, r)
	m.StopTimer()
	if rec.Code >= 500 {
		t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
	}
}

func searchBody(w *experiments.World, requests []workload.Trip, i int) server.SearchRequest {
	req := benchRequest(w, requests, i)
	return server.SearchRequest{
		Source: pointJSON(req.Source), Dest: pointJSON(req.Dest),
		Earliest: req.Earliest, Latest: req.Latest, WalkLimit: req.WalkLimit,
	}
}

func pointJSON(p geo.Point) server.PointJSON { return server.PointJSON{Lat: p.Lat, Lng: p.Lng} }

// replayCounts is what replayMetrics reads off a replay: the engine's
// counters and the bookings the replay had refused.
type replayCounts struct {
	engine  core.Metrics
	refused int
}

// replayMetrics runs a fixed 2 000-trip replay in the paper's protocol
// (track, search, book the best match or else offer a ride) on the
// default engine with the quality funnel on, which counts the candidates
// a search examines, and returns the engine's counters with the
// replay's refused bookings.
func replayMetrics(w *experiments.World) (replayCounts, error) {
	wcfg := workload.DefaultConfig(2000, w.Scale.Seed+3)
	wcfg.StartHour, wcfg.EndHour = 8, 10
	trips, err := workload.Generate(w.City, wcfg)
	if err != nil {
		return replayCounts{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Quality = quality.New(nil)
	eng, err := core.NewEngine(w.Disc, cfg)
	if err != nil {
		return replayCounts{}, err
	}
	defer eng.Close()
	res, err := sim.Run(&sim.XARSystem{Engine: eng}, trips, sim.DefaultConfig())
	if err != nil {
		return replayCounts{}, err
	}
	return replayCounts{engine: eng.Metrics(), refused: res.FailedBooks}, nil
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
}

// pinRuntime runs the rest of t on one P with the collector off. A
// collection empties sync.Pool, and a GOMAXPROCS change drops its per-P
// caches; either way the engine allocates its pooled scratch again, at
// a time no count can predict.
func pinRuntime(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// mallocMeter counts the heap allocations made while it runs, the way a
// benchmark's allocs/op counts them while its timer runs.
type mallocMeter struct {
	ms      runtime.MemStats
	mallocs uint64
}

func (m *mallocMeter) StartTimer() { runtime.ReadMemStats(&m.ms); m.mallocs -= m.ms.Mallocs }
func (m *mallocMeter) StopTimer()  { runtime.ReadMemStats(&m.ms); m.mallocs += m.ms.Mallocs }

func (m *mallocMeter) mean(ops int) float64 { return float64(m.mallocs) / float64(ops) }

// wantAllocs checks a mean the way `go test -benchmem` reports it:
// allocs/op is the mean rounded down.
func wantAllocs(t *testing.T, mean float64, want int) {
	t.Helper()
	if int(mean) != want {
		t.Errorf("%.3f allocs/op, want ⌊mean⌋ = %d", mean, want)
	}
}

func wantRounded(t *testing.T, got, want float64) {
	t.Helper()
	if fmt.Sprintf("%.3f", got) != fmt.Sprintf("%.3f", want) {
		t.Errorf("%.3f, want %.3f", got, want)
	}
}
