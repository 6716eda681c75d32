package xar

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"xar/internal/cluster"
	"xar/internal/core"
	"xar/internal/experiments"
	"xar/internal/quality"
	"xar/internal/sim"
	"xar/internal/workload"
)

// writeOps is how many creates and bookings the write-path counts
// average over. Posting-list and ride-map growth is amortized across
// the run, so a mean is exact only at a fixed count.
const writeOps = 2000

// TestExactWorkCounts holds the engine's work to exact counts on the
// benchmark world. None depends on the machine: a search allocates only
// the slice it returns, create and book allocate a fixed handful each,
// a replay's candidates per search and shortest paths per booking (≤ 4
// by the paper's splice, §VIII-B) are counters of a deterministic run,
// and so are the distances GREEDYSEARCH evaluates on the world's
// landmarks. A change that moves one changes its constant here and says why.
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
		for i := 0; i < writeOps; i++ {
			offerAll(sys, w, w.Trips[i%len(w.Trips):][:1])
		}
		m.StopTimer()
		wantAllocs(t, m.mean(writeOps), 7)
	})
	t.Run("book_allocs", func(t *testing.T) {
		skipUnderRace(t)
		pinRuntime(t)
		sys, requests := seededXAR(t, w)
		var m mallocMeter
		m.StartTimer()
		bookLoop(&m, writeOps, w, sys, requests)
		m.StopTimer()
		wantAllocs(t, m.mean(writeOps), 11)
	})

	t.Run("greedy_dist_evals", func(t *testing.T) {
		dist, lower := w.Disc.LandmarkMetric()
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

	replay := sync.OnceValues(func() (core.Metrics, error) { return replayMetrics(w) })
	t.Run("replay_candidates_per_search", func(t *testing.T) {
		m, err := replay()
		if err != nil {
			t.Fatal(err)
		}
		// 53.99 if full rides get back into the posting lists.
		wantRounded(t, float64(m.CandidatesExamined)/float64(m.Searches), 3.929)
	})
	t.Run("replay_paths_per_book", func(t *testing.T) {
		m, err := replay()
		if err != nil {
			t.Fatal(err)
		}
		// 3.485 if a splice searches a leg the old route already holds.
		wantRounded(t, float64(m.ShortestPaths-m.RidesCreated)/float64(m.Bookings), 2.821)
	})
}

// replayMetrics runs a fixed 2 000-trip replay in the paper's protocol
// (track, search, book the best match or else offer a ride) on the
// default engine with the quality funnel on, which counts the candidates
// a search examines, and returns the engine's counters.
func replayMetrics(w *experiments.World) (core.Metrics, error) {
	wcfg := workload.DefaultConfig(2000, w.Scale.Seed+3)
	wcfg.StartHour, wcfg.EndHour = 8, 10
	trips, err := workload.Generate(w.City, wcfg)
	if err != nil {
		return core.Metrics{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Quality = quality.New(nil)
	eng, err := core.NewEngine(w.Disc, cfg)
	if err != nil {
		return core.Metrics{}, err
	}
	defer eng.Close()
	if _, err := sim.Run(&sim.XARSystem{Engine: eng}, trips, sim.DefaultConfig()); err != nil {
		return core.Metrics{}, err
	}
	return eng.Metrics(), nil
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
