package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// TestMemoryEndpoint: GET /v1/memory on a fully-wired server reports the
// complete component breakdown — engine components, then the server-side
// profiler rings and trace store, in that attribution order — with a live
// rides-per-GB frontier point.
func TestMemoryEndpoint(t *testing.T) {
	env := newTracedEnv(t)
	// Load the engine: one ride plus a search (which also feeds the
	// journal, quality funnel and trace rings).
	body := env.searchBody(t)
	if resp := env.doRaw(t, "POST", "/v1/search", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d", resp.StatusCode)
	}

	var rep core.MemoryReport
	if code := env.do(t, "GET", "/v1/memory?sweep=true", nil, &rep); code != http.StatusOK {
		t.Fatalf("GET /v1/memory = %d", code)
	}
	var names []string
	byName := map[string]uint64{}
	var sum uint64
	for _, c := range rep.Components {
		names = append(names, c.Name)
		byName[c.Name] = c.Bytes
		sum += c.Bytes
	}
	for _, want := range []string{"graph", "discretization", "index", "journal", "quality", "profiles", "traces"} {
		if byName[want] == 0 {
			t.Errorf("component %q missing or zero (have %v)", want, byName)
		}
	}
	if tail := names[max(len(names)-2, 0):]; !slices.Equal(tail, []string{"profiles", "traces"}) {
		t.Errorf("components in order %v, want the engine's then profiles, traces", names)
	}
	if sum != rep.TrackedTotalBytes {
		t.Fatalf("component sum %d != tracked total %d", sum, rep.TrackedTotalBytes)
	}
	if rep.ActiveRides < 1 || rep.IndexBytes == 0 || rep.RidesPerGB <= 0 {
		t.Fatalf("frontier point: rides=%d index=%d rides/GB=%f",
			rep.ActiveRides, rep.IndexBytes, rep.RidesPerGB)
	}
	if rep.Heap.HeapAllocBytes == 0 {
		t.Fatal("heap stats missing")
	}

	// ?sweep=true forces a fresh sweep each call: the count advances.
	var again core.MemoryReport
	if code := env.do(t, "GET", "/v1/memory?sweep=true", nil, &again); code != http.StatusOK {
		t.Fatalf("second GET /v1/memory = %d", code)
	}
	if again.Sweep.Count <= rep.Sweep.Count {
		t.Fatalf("forced sweep did not advance the count: %d → %d", rep.Sweep.Count, again.Sweep.Count)
	}

	// Without ?sweep the cached report is served: the count holds.
	var cached core.MemoryReport
	if code := env.do(t, "GET", "/v1/memory", nil, &cached); code != http.StatusOK {
		t.Fatalf("cached GET /v1/memory = %d", code)
	}
	if cached.Sweep.Count != again.Sweep.Count {
		t.Fatalf("cached read swept: count %d → %d", again.Sweep.Count, cached.Sweep.Count)
	}
}

// TestMemoryEndpointValidation: the same unknown-parameter hardening as
// every other endpoint — unknown or malformed query params are 400s with
// a JSON error body.
func TestMemoryEndpointValidation(t *testing.T) {
	env := newTracedEnv(t)
	for _, path := range []string{
		"/v1/memory?bogus=1",
		"/v1/memory?sweep=potato",
		"/v1/memory?sweeps=true",
		"/v1/memory?sweep=true&extra=2",
	} {
		resp := env.doRaw(t, "GET", path, "", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
			continue
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
			t.Errorf("GET %s: body not a JSON error (%v, %+v)", path, err, body)
		}
	}
	for _, path := range []string{
		"/v1/memory?sweep=false",
		"/v1/memory?sweep=1",
	} {
		if resp := env.doRaw(t, "GET", path, "", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestMemoryEndpointAlwaysOn: an engine built from core.DefaultConfig()
// plus a telemetry registry keeps its component registry. It exposes no
// xar_memsize_ series before any sweep, and /v1/memory answers with the
// engine's components in attribution order.
func TestMemoryEndpointAlwaysOn(t *testing.T) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Telemetry = reg
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(eng, nil, WithTelemetry(reg)).Handler())
	t.Cleanup(srv.Close)
	env := &testEnv{srv: srv, eng: eng, city: city}

	prom := func() string {
		resp, err := http.Get(srv.URL + "/v1/metrics/prom")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if strings.Contains(prom(), "xar_memsize_") {
		t.Fatal("xar_memsize_ series exposed before any sweep")
	}
	var rep core.MemoryReport
	if code := env.do(t, "GET", "/v1/memory?sweep=true", nil, &rep); code != http.StatusOK {
		t.Fatalf("GET /v1/memory?sweep=true = %d", code)
	}
	var names []string
	for _, c := range rep.Components {
		names = append(names, c.Name)
	}
	if want := []string{"graph", "alt", "discretization", "index"}; !slices.Equal(names, want) {
		t.Fatalf("components %v, want %v", names, want)
	}
	if !strings.Contains(prom(), "xar_memsize_bytes{component=\"index\"}") {
		t.Fatal("the sweep published no xar_memsize_bytes for the index")
	}
}

// TestMemoryGaugesInHistory: after a sweep, the memsize gauge families
// appear in the flight recorder's retained series — acceptance
// criterion "xar_memsize_bytes and xar_rides_per_gb in history rings".
func TestMemoryGaugesInHistory(t *testing.T) {
	env := newRecorderEnv(t)
	src, dst := env.corners()
	var cr CreateRideResponse
	if code := env.do(t, "POST", "/v1/rides", CreateRideRequest{
		Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500,
	}, &cr); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	// Sweep (publishes the gauges), then tick the recorder twice so the
	// series land in the history ring with a delta window.
	resp, err := http.Get(env.srv.URL + "/v1/memory?sweep=true")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}
	env.tick(1, time.Millisecond)
	env.tick(1, time.Millisecond)

	dump := env.rec.History(telemetry.HistoryQuery{})
	found := map[string]bool{}
	for _, s := range dump.Series {
		found[s.Name] = true
	}
	for _, want := range []string{"xar_memsize_bytes", "xar_rides_per_gb"} {
		if !found[want] {
			t.Errorf("series %q absent from metrics history", want)
		}
	}
}
