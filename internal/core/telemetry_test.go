package core

import (
	"context"
	"log/slog"
	"sync"
	"testing"
	"time"

	"xar/internal/discretize"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// newInstrumentedEngine builds a test engine recording into reg.
func newInstrumentedEngine(t testing.TB, mutate func(*Config)) (*Engine, *telemetry.Registry) {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Telemetry = reg
	cfg.SearchSampleRate = 1 // exact-count assertions need every search traced
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, reg
}

// TestEngineOpHistograms drives one full ride life-cycle and checks
// every operation and every reached search stage recorded at least one
// observation into the shared registry.
func TestEngineOpHistograms(t *testing.T) {
	e, reg := newInstrumentedEngine(t, nil)
	src, dst := farPoints(t, e)

	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	req := requestAlong(e, r, 0.3, 0.7, 3600, 900)
	ms, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}

	for _, op := range []string{"create", "search"} {
		if n := telemetry.OpDuration(reg, op).Count(); n == 0 {
			t.Fatalf("op %q histogram empty", op)
		}
	}
	for _, st := range []string{"side_lookup", "candidate_scan", "final_check", "detour_check"} {
		if n := telemetry.SearchStage(reg, st).Count(); n == 0 {
			t.Fatalf("stage %q histogram empty", st)
		}
	}

	if len(ms) == 0 {
		t.Fatal("corridor search found no match on the seeded world")
	}
	bk, err := e.Book(ms[0], req)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Track(id, 1e12); err != nil {
		t.Fatal(err)
	}
	e.CompleteRide(id)
	for _, op := range []string{"book", "cancel", "track", "complete"} {
		if n := telemetry.OpDuration(reg, op).Count(); n == 0 {
			t.Fatalf("op %q histogram empty", op)
		}
	}

	// Sanity: durations are positive and small (sum > 0, p99 < 10s).
	h := telemetry.OpDuration(reg, "search")
	if h.Sum() <= 0 || h.Quantile(0.99) > 10 {
		t.Fatalf("search histogram implausible: sum=%v p99=%v", h.Sum(), h.Quantile(0.99))
	}
}

// TestSlowOpLog verifies the slow-operation log fires above the
// threshold and respects the configured logger.
func TestSlowOpLog(t *testing.T) {
	rec := &recordingHandler{}
	e, _ := newInstrumentedEngine(t, func(cfg *Config) {
		cfg.SlowOpThreshold = time.Nanosecond // everything is slow
		cfg.SlowOpLogger = slog.New(rec)
	})
	src, dst := farPoints(t, e)
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000}); err != nil {
		t.Fatal(err)
	}
	if rec.count() == 0 {
		t.Fatal("no slow-op record emitted at 1ns threshold")
	}
	if op := rec.lastOp(); op != "create" {
		t.Fatalf("slow-op record op = %q", op)
	}
}

// TestSlowOpLogWithoutRegistry: slow logging alone must work without an
// exposed registry.
func TestSlowOpLogWithoutRegistry(t *testing.T) {
	rec := &recordingHandler{}
	e, _ := newInstrumentedEngine(t, func(cfg *Config) {
		cfg.Telemetry = nil
		cfg.SlowOpThreshold = time.Nanosecond
		cfg.SlowOpLogger = slog.New(rec)
	})
	src, dst := farPoints(t, e)
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000}); err != nil {
		t.Fatal(err)
	}
	if rec.count() == 0 {
		t.Fatal("slow-op log requires no registry")
	}
}

// TestSearchTelemetryConcurrent hammers an instrumented engine's search
// path from 8 goroutines — the -race check for the stage histograms.
func TestSearchTelemetryConcurrent(t *testing.T) {
	e, reg := newInstrumentedEngine(t, nil)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	req := requestAlong(e, e.Ride(id), 0.3, 0.7, 3600, 900)

	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := e.Search(req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := telemetry.OpDuration(reg, "search").Count(); n != goroutines*perG {
		t.Fatalf("search observations = %d, want %d", n, goroutines*perG)
	}
}

// TestSearchSampling: at rate N, exactly 1 in N searches lands in the op
// histogram while the Metrics counter still counts every search.
func TestSearchSampling(t *testing.T) {
	e, reg := newInstrumentedEngine(t, func(cfg *Config) {
		cfg.SearchSampleRate = 4
	})
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	req := requestAlong(e, e.Ride(id), 0.3, 0.7, 3600, 900)
	const searches = 100
	for i := 0; i < searches; i++ {
		if _, err := e.Search(req); err != nil {
			t.Fatal(err)
		}
	}
	if n := telemetry.OpDuration(reg, "search").Count(); n != searches/4 {
		t.Fatalf("sampled observations = %d, want %d", n, searches/4)
	}
	if n := e.Metrics().Searches; n != searches {
		t.Fatalf("Metrics.Searches = %d, want %d (sampling must not affect counters)", n, searches)
	}
	// Rates round up to a power of two; 5 → 8.
	tel := newEngineTelemetry(nil, nil, 5, 0, nil)
	if tel.sampleMask != 7 {
		t.Fatalf("sampleMask for rate 5 = %d, want 7", tel.sampleMask)
	}
}

func TestMetricsMatchRate(t *testing.T) {
	if got := (Metrics{}).MatchRate(); got != 0 {
		t.Fatalf("empty match rate = %v", got)
	}
	if got := (Metrics{Searches: 4, SearchMatches: 6}).MatchRate(); got != 1.5 {
		t.Fatalf("match rate = %v", got)
	}
}

// recordingHandler is a minimal slog.Handler capturing records.
type recordingHandler struct {
	mu      sync.Mutex
	records []map[string]any
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	attrs := map[string]any{}
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value.Any()
		return true
	})
	h.mu.Lock()
	h.records = append(h.records, attrs)
	h.mu.Unlock()
	return nil
}

func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler      { return h }

func (h *recordingHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.records)
}

func (h *recordingHandler) lastOp() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.records) == 0 {
		return ""
	}
	op, _ := h.records[len(h.records)-1]["op"].(string)
	return op
}

// TestOpErrorCounters checks failed operations land in
// xar_op_errors_total{op} while successes do not.
func TestOpErrorCounters(t *testing.T) {
	e, reg := newInstrumentedEngine(t, nil)
	errCount := func(op string) uint64 {
		return reg.Counter("xar_op_errors_total", "", telemetry.L("op", op)).Value()
	}

	// Failing ops: unknown ride book, invalid search window.
	if _, err := e.Book(Match{Ride: 999999}, Request{Source: e.Disc().Landmarks[0].Point, Dest: e.Disc().Landmarks[1].Point, EarliestDeparture: 0, LatestDeparture: 10, WalkLimit: 500}); err == nil {
		t.Fatal("booking an unknown ride succeeded")
	}
	if _, err := e.Search(Request{Source: e.Disc().Landmarks[0].Point, Dest: e.Disc().Landmarks[1].Point, EarliestDeparture: 10, LatestDeparture: 5}); err == nil {
		t.Fatal("inverted-window search succeeded")
	}
	if errCount("book") != 1 {
		t.Fatalf("book errors = %d, want 1", errCount("book"))
	}
	// Validation rejects before the op span opens; only engine-level
	// failures count. The search error counter must exist but stay 0.
	if errCount("search") != 0 {
		t.Fatalf("search errors = %d, want 0 (validation failures precede the op)", errCount("search"))
	}

	// A successful create adds no error.
	src, dst := farPoints(t, e)
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000}); err != nil {
		t.Fatal(err)
	}
	if errCount("create") != 0 {
		t.Fatalf("create errors = %d, want 0", errCount("create"))
	}
}
