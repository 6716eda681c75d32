package server

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/memsize"
	"xar/internal/profile"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// recorderEnv is a testEnv with the full flight-recorder stack wired:
// shared registry, tracer, recorder (manual ticking), SLO engine.
type recorderEnv struct {
	*testEnv
	reg *telemetry.Registry
	rec *telemetry.Recorder
	slo *telemetry.SLOEngine
	now float64
}

// newRecorderEnv profiles on demand only, with no CPU window: /v1/profiles
// and debug bundles have content, tests stay deterministic.
func newRecorderEnv(t testing.TB) *recorderEnv {
	t.Helper()
	return newRecorderEnvCPU(t, -1)
}

// newRecorderEnvCPU is newRecorderEnv with the profiler's CPU window set.
func newRecorderEnvCPU(t testing.TB, cpuWindow time.Duration) *recorderEnv {
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
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1})
	qc := quality.New(reg)
	cfg := core.DefaultConfig()
	cfg.Telemetry = reg
	cfg.Tracer = tracer
	cfg.Quality = qc
	cfg.Memory = memsize.NewRegistry()
	cfg.Profiling = profile.New(profile.Config{Registry: reg, CPUWindow: cpuWindow})
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(reg, telemetry.RecorderConfig{
		Interval:  10 * time.Second,
		Retention: time.Hour,
	})
	slo := telemetry.NewSLOEngine(rec, telemetry.SLOConfig{},
		DefaultSLOs(10*time.Millisecond)...)
	s := httptest.NewServer(New(eng, core.NewSocialGraph(),
		WithTelemetry(reg), WithTracer(tracer),
		WithRecorder(rec), WithSLO(slo), WithQuality(qc)).Handler())
	t.Cleanup(s.Close)
	return &recorderEnv{
		testEnv: &testEnv{srv: s, eng: eng, city: city},
		reg:     reg, rec: rec, slo: slo,
		now: 100_000,
	}
}

// tick advances 10s of simulated time after recording n search
// observations of d each.
func (env *recorderEnv) tick(n int, d time.Duration) {
	h := telemetry.OpDuration(env.reg, "search")
	for i := 0; i < n; i++ {
		h.ObserveDuration(d)
	}
	env.rec.TickAt(env.now)
	env.now += 10
}

// TestMetricsHistoryEndpoint drives ≥30 minutes of simulated load
// through the recorder and checks the endpoint serves windowed rates and
// rolling quantiles over it — acceptance criterion 3, first half.
func TestMetricsHistoryEndpoint(t *testing.T) {
	env := newRecorderEnv(t)
	// 35 minutes at 10s ticks: fast phase, then a slow phase the rolling
	// quantiles must resolve.
	for i := 0; i < 180; i++ { // 30 min healthy
		env.tick(50, 500*time.Microsecond)
	}
	for i := 0; i < 30; i++ { // +5 min degraded
		env.tick(50, 50*time.Millisecond)
	}

	var dump telemetry.HistoryDump
	code := env.do(t, "GET",
		"/v1/metrics/history?name=xar_op_duration_seconds&window_s=300", nil, &dump)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if dump.Snapshots < 180 {
		t.Fatalf("snapshots = %d, want ≥ 180 (30 min at 10s)", dump.Snapshots)
	}
	var search *telemetry.HistorySeries
	for i := range dump.Series {
		if dump.Series[i].Labels["op"] == "search" {
			search = &dump.Series[i]
		}
	}
	if search == nil {
		t.Fatal("no op=search series in history")
	}
	if len(search.Points) < 180 {
		t.Fatalf("points = %d, want ≥ 180", len(search.Points))
	}
	span := search.Points[len(search.Points)-1].Unix - search.Points[0].Unix
	if span < 30*60 {
		t.Fatalf("history spans %.0fs, want ≥ 1800s", span)
	}
	// Windowed rate: 50 obs / 10s = 5/s under a steady load.
	mid := search.Points[100]
	if mid.Rate == nil || *mid.Rate < 4.5 || *mid.Rate > 5.5 {
		t.Fatalf("mid-history rate = %v, want ≈5/s", mid.Rate)
	}
	// Rolling p95 resolves the phase change: early windows ≈0.5ms, the
	// final window ≈50ms.
	early, last := search.Points[100], search.Points[len(search.Points)-1]
	if early.P95 == nil || *early.P95 > 0.005 {
		t.Fatalf("healthy-phase p95 = %v, want ≈0.0005", early.P95)
	}
	if last.P95 == nil || *last.P95 < 0.01 {
		t.Fatalf("degraded-phase p95 = %v, want ≈0.05", last.P95)
	}

	// Unfiltered query also serves HTTP and runtime series.
	code = env.do(t, "GET", "/v1/metrics/history", nil, &dump)
	if code != http.StatusOK || len(dump.Series) < 2 {
		t.Fatalf("unfiltered history: status %d, %d series", code, len(dump.Series))
	}
}

func TestMetricsHistoryValidation(t *testing.T) {
	env := newRecorderEnv(t)
	for _, q := range []string{
		"?window_s=potato", "?window_s=-5", "?window_s=0", "?window_s=NaN",
		"?since_s=abc", "?max_points=0", "?max_points=-1", "?max_points=1.5",
	} {
		if code := env.do(t, "GET", "/v1/metrics/history"+q, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET /v1/metrics/history%s = %d, want 400", q, code)
		}
	}
	// Absent recorder → 404.
	bare := newTestEnv(t)
	if code := bare.do(t, "GET", "/v1/metrics/history", nil, nil); code != http.StatusNotFound {
		t.Fatalf("recorder-less history = %d, want 404", code)
	}
}

// TestFlightRecorderUnknownParams pins the same contract /v1/traces and
// /v1/events enforce: a typo'd query parameter is a 400, not a silent
// fall-back to defaults (a dashboard charting "windows_s=300" would
// otherwise quietly show the whole retention window).
func TestFlightRecorderUnknownParams(t *testing.T) {
	env := newRecorderEnv(t)
	env.tick(10, time.Millisecond)

	for _, q := range []string{
		"?windows_s=300", "?maxpoints=10", "?name=x&bogus=1", "?limit=5",
	} {
		if code := env.do(t, "GET", "/v1/metrics/history"+q, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET /v1/metrics/history%s = %d, want 400", q, code)
		}
	}
	// Known parameters in combination still work.
	var dump telemetry.HistoryDump
	if code := env.do(t, "GET", "/v1/metrics/history?name=xar_op_duration_seconds&window_s=60&since_s=600&max_points=5", nil, &dump); code != http.StatusOK {
		t.Fatalf("valid history query = %d, want 200", code)
	}

	for _, q := range []string{"?window_s=300", "?verbose=1", "?status=page"} {
		if code := env.do(t, "GET", "/v1/slo"+q, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET /v1/slo%s = %d, want 400", q, code)
		}
	}
	var slo SLOResponse
	if code := env.do(t, "GET", "/v1/slo", nil, &slo); code != http.StatusOK {
		t.Fatalf("bare /v1/slo = %d, want 200", code)
	}
	// The disabled-endpoint 404 must win over parameter validation, as on
	// the recorder-less history endpoint.
	bare := newTestEnv(t)
	if code := bare.do(t, "GET", "/v1/slo?bogus=1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("slo-less /v1/slo?bogus=1 = %d, want 404", code)
	}
}

// TestSLOTransitionsToPage injects a latency spike and watches /v1/slo
// and /v1/healthz move ok → page — acceptance criterion 3, second half.
func TestSLOTransitionsToPage(t *testing.T) {
	env := newRecorderEnv(t)

	// 31 min healthy: fills both burn windows.
	for i := 0; i < 186; i++ {
		env.tick(50, 500*time.Microsecond)
	}
	var slo SLOResponse
	if code := env.do(t, "GET", "/v1/slo", nil, &slo); code != http.StatusOK {
		t.Fatalf("slo status %d", code)
	}
	if slo.Status != "ok" {
		t.Fatalf("pre-spike SLO status = %q, want ok (%+v)", slo.Status, slo.Objectives)
	}
	var h HealthResponse
	env.do(t, "GET", "/v1/healthz", nil, &h)
	if h.Status != "ok" {
		t.Fatalf("pre-spike health = %q, want ok", h.Status)
	}

	// Spike: every search lands at 100ms, 10× past the 10ms objective.
	for i := 0; i < 18; i++ { // 3 minutes
		env.tick(50, 100*time.Millisecond)
	}
	if code := env.do(t, "GET", "/v1/slo", nil, &slo); code != http.StatusOK {
		t.Fatalf("slo status %d", code)
	}
	if slo.Status != "page" {
		t.Fatalf("post-spike SLO status = %q, want page (%+v)", slo.Status, slo.Objectives)
	}
	found := false
	for _, o := range slo.Objectives {
		if o.Name == "search-p95" {
			found = true
			if o.State.String() != "page" {
				t.Fatalf("search-p95 state = %v, want page (burn short=%v long=%v)",
					o.State, o.BurnShort, o.BurnLong)
			}
			if o.BurnShort < 10 {
				t.Fatalf("burn short = %v, want ≥ 10", o.BurnShort)
			}
		}
	}
	if !found {
		t.Fatal("no search-p95 objective in /v1/slo")
	}
	env.do(t, "GET", "/v1/healthz", nil, &h)
	if h.Status != "page" {
		t.Fatalf("post-spike health = %q, want page", h.Status)
	}

	// SLO-less server keeps the static ok and 404s /v1/slo.
	bare := newTestEnv(t)
	if code := bare.do(t, "GET", "/v1/slo", nil, nil); code != http.StatusNotFound {
		t.Fatalf("slo-less /v1/slo = %d, want 404", code)
	}
}

// fetchBundle GETs /v1/debug/bundle and untars it into name → content.
func (env *recorderEnv) fetchBundle(t *testing.T) map[string][]byte {
	t.Helper()
	resp, err := http.Get(env.srv.URL + "/v1/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("content type %q", ct)
	}

	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	members := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		members[hdr.Name] = b
	}
	return members
}

// TestPageShipsCPUProfilesInBundle: with the continuous profiler attached
// to the SLO engine, a page transition pins the capture bracket around it
// and the bundle carries both captures' raw CPU profiles.
func TestPageShipsCPUProfilesInBundle(t *testing.T) {
	env := newRecorderEnvCPU(t, 20*time.Millisecond)
	p := env.eng.Profiler()
	p.AttachTo(env.slo)

	p.CaptureNow() // the capture before the incident
	for i := 0; i < 186; i++ {
		env.tick(50, 500*time.Microsecond)
	}
	for i := 0; i < 18; i++ {
		env.tick(50, 100*time.Millisecond)
	}
	if st := env.slo.WorstState(); st != telemetry.SLOPage {
		t.Fatalf("SLO state = %v, want page", st)
	}
	p.CaptureNow() // the capture after it

	cpu := 0
	for name, b := range env.fetchBundle(t) {
		if strings.HasPrefix(name, "profile-") && strings.HasSuffix(name, "-cpu.pprof") && len(b) > 0 {
			cpu++
		}
	}
	if cpu != 2 {
		t.Fatalf("bundle carries %d pinned CPU profiles, want the 2 bracketing the page", cpu)
	}
}

// TestDebugBundle exercises GET /v1/debug/bundle end-to-end: real
// traffic, then untar and verify every expected member — acceptance
// criterion 5.
func TestDebugBundle(t *testing.T) {
	env := newRecorderEnv(t)
	src, dst := env.corners()

	// Real traffic so traces and metrics have content.
	var cr CreateRideResponse
	if code := env.do(t, "POST", "/v1/rides", CreateRideRequest{
		Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500,
	}, &cr); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	var sr SearchResponse
	env.do(t, "POST", "/v1/search", SearchRequest{
		Source: src, Dest: dst, Earliest: 0, Latest: 7200, WalkLimit: 900,
	}, &sr)
	// An engine-level failure (unknown ride) marks its trace as errored.
	env.do(t, "POST", "/v1/bookings", BookRequest{
		Match: MatchJSON{RideID: 999999},
		Request: SearchRequest{
			Source: src, Dest: dst, Earliest: 0, Latest: 7200, WalkLimit: 900,
		},
	}, nil)
	env.tick(10, time.Millisecond)
	env.tick(10, time.Millisecond)
	// Two on-demand captures, the newest pinned — the bundle must carry
	// the summary list plus the pinned capture's raw blobs.
	env.eng.Profiler().CaptureNow()
	env.eng.Profiler().CaptureNow()
	env.eng.Profiler().PinLatest("bundle test")

	members := env.fetchBundle(t)

	for _, want := range []string{
		"config.json", "quality.json", "slo.json", "history.json",
		"memory.json", "metrics.prom",
		"traces_slowest.json", "traces_errors.json", "goroutine.pprof",
		"goroutines.txt", "heap.pprof", "profiles.json",
	} {
		if len(members[want]) == 0 {
			t.Errorf("bundle member %s missing or empty", want)
		}
	}

	// The pinned capture's raw blobs ride along for post-incident pprof.
	var plist ProfileListResponse
	if err := json.Unmarshal(members["profiles.json"], &plist); err != nil {
		t.Fatalf("profiles.json: %v", err)
	}
	if len(plist.Profiles) < 2 {
		t.Errorf("profiles.json lists %d captures, want >= 2", len(plist.Profiles))
	}
	pinnedRaw := 0
	for name, b := range members {
		if strings.HasPrefix(name, "profile-") && strings.HasSuffix(name, ".pprof") && len(b) > 0 {
			pinnedRaw++
		}
	}
	if pinnedRaw == 0 {
		t.Error("no pinned profile-<id>-<name>.pprof members in the bundle")
	}

	// Member sanity: config carries the world, slo parses with states,
	// history holds the ticks, traces include the error trace.
	var cfg map[string]any
	if err := json.Unmarshal(members["config.json"], &cfg); err != nil {
		t.Fatalf("config.json: %v", err)
	}
	if cfg["active_rides"].(float64) != 1 || cfg["road_nodes"].(float64) < 100 {
		t.Fatalf("config.json implausible: %v", cfg)
	}
	// The index is one structure: nothing per shard to report.
	if _, ok := members["shards.json"]; ok || cfg["index_shards"] != nil {
		t.Fatalf("bundle still describes index shards (shards.json present: %v, config index_shards: %v)", ok, cfg["index_shards"])
	}
	var qr QualityResponse
	if err := json.Unmarshal(members["quality.json"], &qr); err != nil {
		t.Fatalf("quality.json: %v", err)
	}
	if qr.CandidatesExamined == 0 || qr.Funnel["matched"] == 0 {
		t.Fatalf("quality.json funnel empty after a matching search: %+v", qr.Funnel)
	}
	var slo SLOResponse
	if err := json.Unmarshal(members["slo.json"], &slo); err != nil {
		t.Fatalf("slo.json: %v", err)
	}
	if len(slo.Objectives) != 4 {
		t.Fatalf("slo.json objectives = %d, want 4", len(slo.Objectives))
	}
	var hist telemetry.HistoryDump
	if err := json.Unmarshal(members["history.json"], &hist); err != nil {
		t.Fatalf("history.json: %v", err)
	}
	if hist.Snapshots != 2 {
		t.Fatalf("history.json snapshots = %d, want 2", hist.Snapshots)
	}
	var errTraces TracesResponse
	if err := json.Unmarshal(members["traces_errors.json"], &errTraces); err != nil {
		t.Fatalf("traces_errors.json: %v", err)
	}
	if len(errTraces.Traces) == 0 {
		t.Fatal("traces_errors.json has no traces despite a failed booking")
	}
	var mem core.MemoryReport
	if err := json.Unmarshal(members["memory.json"], &mem); err != nil {
		t.Fatalf("memory.json: %v", err)
	}
	if len(mem.Components) == 0 || mem.TrackedTotalBytes == 0 {
		t.Fatalf("memory.json has no component breakdown: %+v", mem)
	}
	// goroutines.txt is the text dump; must mention this test's server.
	if len(members["goroutines.txt"]) < 100 {
		t.Fatalf("goroutines.txt suspiciously small: %d bytes", len(members["goroutines.txt"]))
	}
}
