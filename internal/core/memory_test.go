package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xar/internal/discretize"
	"xar/internal/journal"
	"xar/internal/memsize"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// newMemEngine builds an engine with every memory-owning component
// (journal, quality) and telemetry, so sweeps publish their gauges.
func newMemEngine(t testing.TB) *Engine {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Journal = journal.New(journal.Config{Registry: cfg.Telemetry})
	cfg.Quality = quality.New(cfg.Telemetry)
	cfg.ShadowSampleRate = 1
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fillRides creates n rides between far-apart corners.
func fillRides(t testing.TB, e *Engine, n int) {
	t.Helper()
	src, dst := farPoints(t, e)
	for i := 0; i < n; i++ {
		if _, err := e.CreateRide(RideOffer{
			Source: src, Dest: dst, Departure: 1000 + float64(i), Seats: 4,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoryReportComponents: a sweep over a loaded engine reports every
// engine-registered component with non-zero shares, a rides-per-GB point
// derived from the index share, and sane heap/sweep metadata.
func TestMemoryReportComponents(t *testing.T) {
	e := newMemEngine(t)
	defer e.Close()
	fillRides(t, e, 40)

	rep := e.MemSweep()
	want := []string{"graph", "discretization", "index", "journal", "quality"}
	for _, name := range want {
		var found *memsize.ComponentBytes
		for i := range rep.Components {
			if rep.Components[i].Name == name {
				found = &rep.Components[i]
			}
		}
		if found == nil {
			t.Fatalf("component %q missing from report (have %v)", name, rep.Components)
		}
		if found.Bytes == 0 {
			t.Errorf("component %q measured at zero bytes", name)
		}
	}
	if rep.ActiveRides != 40 {
		t.Fatalf("ActiveRides = %d, want 40", rep.ActiveRides)
	}
	if rep.IndexBytes == 0 || rep.RidesPerGB <= 0 {
		t.Fatalf("index frontier: IndexBytes=%d RidesPerGB=%f", rep.IndexBytes, rep.RidesPerGB)
	}
	// On a quiescent engine the index component is the deep walk of the
	// index — slot tables, free lists and cluster directories included,
	// reached by reflection like everything else — less what the walk
	// meets on the way and earlier components own: the road graph and the
	// discretization. What is left over is the Locked header the View
	// points at, which the walk of the Index does not visit.
	var owned uint64
	for _, c := range rep.Components {
		if c.Name == "graph" || c.Name == "discretization" || c.Name == "index" {
			owned += c.Bytes
		}
	}
	if deep := memsize.Of(e.Index()); deep < owned || deep-owned > 256 {
		t.Fatalf("memsize.Of(Index()) = %d, graph + discretization + index components = %d (index %d)", deep, owned, rep.IndexBytes)
	}
	var sum uint64
	for _, c := range rep.Components {
		sum += c.Bytes
	}
	if sum != rep.TrackedTotalBytes {
		t.Fatalf("component sum %d != TrackedTotalBytes %d", sum, rep.TrackedTotalBytes)
	}
	if rep.Heap.HeapAllocBytes == 0 || rep.Heap.TrackedCoverageRatio <= 0 {
		t.Fatalf("heap stats missing: %+v", rep.Heap)
	}
	if rep.Sweep.Count == 0 {
		t.Fatal("sweep count not incremented")
	}
	if got := e.LastMemReport(); got != rep {
		t.Fatal("LastMemReport did not return the latest sweep")
	}
}

// TestMemoryAccountingTracksGrowth is the Measurer-accuracy check: grow
// the ride population by a known factor and assert the index component's
// bytes grow proportionally (the journal component must grow too, until
// its rings saturate).
func TestMemoryAccountingTracksGrowth(t *testing.T) {
	e := newMemEngine(t)
	defer e.Close()

	base := e.MemSweep()
	b0 := base.IndexBytes

	fillRides(t, e, 50)
	r1 := e.MemSweep()
	d1 := r1.IndexBytes - b0

	fillRides(t, e, 150) // 4x total rides vs the first batch
	r2 := e.MemSweep()
	d2 := r2.IndexBytes - b0

	if d1 == 0 || d2 == 0 {
		t.Fatalf("index component did not grow with rides: +50 → %d bytes, +200 → %d bytes", d1, d2)
	}
	// 4x the rides should cost 4x the per-ride bytes; allow generous
	// slack for map resizing and shared-route dedup.
	if d2 < 2*d1 || d2 > 8*d1 {
		t.Fatalf("index growth not proportional: 50 rides cost %d bytes, 200 rides cost %d (want ~4x)", d1, d2)
	}
	if j1, j2 := r1.Components, r2.Components; len(j1) > 0 && len(j2) > 0 {
		var jb1, jb2 uint64
		for _, c := range j1 {
			if c.Name == "journal" {
				jb1 = c.Bytes
			}
		}
		for _, c := range j2 {
			if c.Name == "journal" {
				jb2 = c.Bytes
			}
		}
		if jb2 < jb1 {
			t.Fatalf("journal component shrank under growth: %d → %d", jb1, jb2)
		}
	}
}

// TestMemoryGaugesPublished: a sweep publishes the per-component gauges,
// the frontier gauge and the sweep-duration histogram into the engine's
// telemetry registry (the same series /v1/metrics/history snapshots).
func TestMemoryGaugesPublished(t *testing.T) {
	e := newMemEngine(t)
	defer e.Close()
	fillRides(t, e, 10)
	e.MemSweep()

	var sb strings.Builder
	if err := e.cfg.Telemetry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			seen[name] = true
		}
	}
	for _, name := range []string{
		"xar_memsize_bytes",
		"xar_rides_per_gb",
		"xar_memsize_sweep_duration_seconds",
	} {
		if !seen[name] {
			t.Errorf("metric family %q not published after a sweep", name)
		}
	}
}

// TestLastMemReportSweepsOnce: before any sweep LastMemReport runs the
// first one; after it, it returns that report without sweeping again.
func TestLastMemReportSweepsOnce(t *testing.T) {
	e := newMemEngine(t)
	defer e.Close()
	first := e.LastMemReport()
	if first.Sweep.Count != 1 || len(first.Components) == 0 {
		t.Fatalf("first report: count %d, %d components", first.Sweep.Count, len(first.Components))
	}
	if again := e.LastMemReport(); again != first {
		t.Fatalf("LastMemReport swept again: count %d", again.Sweep.Count)
	}
	if next := e.MemSweep(); next.Sweep.Count != 2 {
		t.Fatalf("MemSweep after the first report: count %d, want 2", next.Sweep.Count)
	}
}

// TestEngineCloseStopsBackgroundWorkers is the goroutine-leak regression
// test: an engine with its one background worker (the shadow matcher)
// enabled must return to the baseline goroutine count after Close.
func TestEngineCloseStopsBackgroundWorkers(t *testing.T) {
	before := runtime.NumGoroutine()

	e := newMemEngine(t)
	fillRides(t, e, 5)
	// Exercise the shadow worker so its queue has seen traffic.
	src, dst := farPoints(t, e)
	for i := 0; i < 5; i++ {
		_, _ = e.Search(Request{
			Source: src, Dest: dst,
			EarliestDeparture: 0, LatestDeparture: 5000, WalkLimit: 900,
		})
	}

	e.Close()
	e.Close() // Close is idempotent

	// Goroutine counts are noisy (test runtime, finalizers): retry until
	// the count settles back to the pre-engine baseline.
	var after int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		if after = runtime.NumGoroutine(); after <= before {
			return
		}
	}
	t.Fatalf("goroutines leaked past Close: %d before, %d after", before, after)
}

// TestConcurrentSweepDuringMutation drives sweeps and engine mutation
// from 8 goroutines at once — the -race proof that every Measurer's
// locking story holds against live writes.
func TestConcurrentSweepDuringMutation(t *testing.T) {
	e := newMemEngine(t)
	defer e.Close()
	fillRides(t, e, 10)
	src, dst := farPoints(t, e)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if w%2 == 0 {
					e.MemSweep()
					continue
				}
				_, err := e.CreateRide(RideOffer{
					Source: src, Dest: dst, Departure: 1000 + float64(w*100+i), Seats: 4,
				})
				if err != nil {
					t.Errorf("create during sweep: %v", err)
					return
				}
				_, _ = e.SearchK(Request{
					Source: src, Dest: dst,
					EarliestDeparture: 0, LatestDeparture: 1e6, WalkLimit: 900,
				}, 1)
			}
		}(w)
	}
	wg.Wait()

	rep := e.MemSweep()
	if rep.ActiveRides != 10+workers/2*25 {
		t.Fatalf("post-race state: %+v", rep)
	}
}

// TestDroppedEngineFreedByOneCollection: a dropped engine is garbage at
// the first collection after it is dropped, whatever its config. Every op
// kind runs first, so both pools (finders, scratchPool) hold items when
// the engine goes. The runtime's pool registry keeps a used pool
// reachable through the next collection, so a pool embedded in Engine,
// or one whose New captured the engine, kept the whole engine (index,
// rides, posting lists) alive until a second collection.
func TestDroppedEngineFreedByOneCollection(t *testing.T) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"default", DefaultConfig},
		{"quality_journal", func() Config {
			cfg := DefaultConfig()
			cfg.Quality = quality.New(nil)
			cfg.Journal = journal.New(journal.Config{})
			return cfg
		}},
		{"shadow_closed", func() Config {
			cfg := DefaultConfig()
			cfg.Quality = quality.New(nil)
			cfg.ShadowSampleRate = 1
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			freed := useAndDropEngine(t, d, tc.cfg())
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(2 * time.Second):
				t.Fatal("the dropped engine outlived one collection: something still reaches it")
			}
		})
	}
}

// useAndDropEngine builds an engine, runs create, search, SearchBatch,
// book, cancel and track on it, closes it, and returns with nothing
// referring to it but a finalizer that closes the returned channel.
func useAndDropEngine(t *testing.T, d *discretize.Discretization, cfg Config) <-chan struct{} {
	t.Helper()
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bk, req := bookOne(t, e)
	if _, errs := e.SearchBatch([]Request{req, req}, 0); errs[0] != nil || errs[1] != nil {
		t.Fatalf("SearchBatch: %v", errs)
	}
	if err := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Track(bk.Ride, e.Ride(bk.Ride).Departure+60); err != nil {
		t.Fatal(err)
	}
	e.Close()
	freed := make(chan struct{})
	runtime.SetFinalizer(e, func(*Engine) { close(freed) })
	return freed
}
