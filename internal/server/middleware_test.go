package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/index"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// newInstrumentedEnv builds a server whose engine and HTTP layer share
// one registry — the deployment shape of cmd/xarserver.
func newInstrumentedEnv(t testing.TB) (*testEnv, *telemetry.Registry) {
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
	cfg := core.DefaultConfig()
	cfg.Telemetry = reg
	cfg.SearchSampleRate = 1 // deterministic op/stage counts for assertions
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := httptest.NewServer(New(eng, core.NewSocialGraph(), WithTelemetry(reg)).Handler())
	t.Cleanup(s.Close)
	return &testEnv{srv: s, eng: eng, city: city}, reg
}

func scrapeProm(t testing.TB, env *testEnv) string {
	t.Helper()
	resp, err := http.Get(env.srv.URL + "/v1/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// promValue extracts the value of the first sample line with the given
// series prefix (name + label block).
func promValue(t testing.TB, text, seriesPrefix string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, seriesPrefix) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %q not found in exposition:\n%s", seriesPrefix, text)
	return 0
}

// TestPromEndpointExposition checks /v1/metrics/prom is well-formed:
// TYPE lines for every expected family, cumulative monotone buckets,
// +Inf == _count per route series.
func TestPromEndpointExposition(t *testing.T) {
	env, _ := newInstrumentedEnv(t)

	// Generate some traffic first.
	for i := 0; i < 5; i++ {
		var h HealthResponse
		env.do(t, "GET", "/v1/healthz", nil, &h)
	}
	text := scrapeProm(t, env)

	for _, want := range []string{
		"# TYPE xar_http_requests_total counter",
		"# TYPE xar_http_request_duration_seconds histogram",
		"# TYPE xar_http_inflight_requests gauge",
		"# TYPE xar_op_duration_seconds histogram",
		"# TYPE xar_search_stage_duration_seconds histogram",
		`xar_http_requests_total{route="/v1/healthz",code="2xx"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}

	// Bucket monotonicity + +Inf == count for the healthz route.
	var last, inf uint64
	var infSeen bool
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `xar_http_request_duration_seconds_bucket{route="/v1/healthz"`) {
			continue
		}
		n, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("buckets not monotone at %q", line)
		}
		last = n
		if strings.Contains(line, `le="+Inf"`) {
			infSeen, inf = true, n
		}
	}
	if !infSeen {
		t.Fatal("no +Inf bucket for healthz route")
	}
	if count := promValue(t, text, `xar_http_request_duration_seconds_count{route="/v1/healthz"}`); uint64(count) != inf {
		t.Fatalf("+Inf bucket %d != count %v", inf, count)
	}
}

// TestMiddlewareStatusClasses drives 2xx, 4xx and 5xx responses through
// the middleware and checks each lands in its class counter.
func TestMiddlewareStatusClasses(t *testing.T) {
	env, reg := newInstrumentedEnv(t)

	// 2xx: healthz. 4xx: malformed search body.
	var h HealthResponse
	if code := env.do(t, "GET", "/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	resp, err := http.Post(env.srv.URL+"/v1/search", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d", resp.StatusCode)
	}

	// 5xx: exercise the middleware directly with a failing handler (no
	// production handler 500s deterministically).
	srv := &Server{reg: reg, inflight: reg.Gauge(httpInflightName, "", nil)}
	boom := srv.instrument("/v1/boom", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("boom status %d", rec.Code)
	}

	text := scrapeProm(t, env)
	for _, want := range []string{
		`xar_http_requests_total{route="/v1/healthz",code="2xx"} 1`,
		`xar_http_requests_total{route="/v1/search",code="4xx"} 1`,
		`xar_http_requests_total{route="/v1/boom",code="5xx"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Latency recorded on the error paths too.
	if v := promValue(t, text, `xar_http_request_duration_seconds_count{route="/v1/boom"}`); v != 1 {
		t.Fatalf("boom duration count = %v", v)
	}
	if v := promValue(t, text, `xar_http_request_duration_seconds_count{route="/v1/search"}`); v != 1 {
		t.Fatalf("search duration count = %v", v)
	}
	// In-flight gauge: only the scrape request itself is in flight at
	// render time.
	if v := promValue(t, text, "xar_http_inflight_requests"); v != 1 {
		t.Fatalf("inflight = %v", v)
	}
}

// TestMiddlewareRecoversPanic: a panicking handler is answered with a
// 500 and the uniform error body, and the request is booked like any
// other failure — in-flight back to zero, one 5xx, the root span closed
// with the panic as its error.
func TestMiddlewareRecoversPanic(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1})
	srv := &Server{reg: reg, tracer: tr, inflight: reg.Gauge(httpInflightName, "", nil)}
	h := srv.instrument("/x", func(http.ResponseWriter, *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("body %q is not the JSON error envelope (%v)", rec.Body.String(), err)
	}
	if v := srv.inflight.Value(); v != 0 {
		t.Fatalf("in-flight = %v after the panic, want 0", v)
	}
	if v := reg.Counter(httpRequestsName, "", telemetry.L("route", "/x", "code", "5xx")).Value(); v != 1 {
		t.Fatalf("5xx count = %d, want 1", v)
	}
	id, _ := telemetry.ParseTraceID(rec.Header().Get("X-Xar-Trace-Id"))
	td, ok := tr.Store().Get(id)
	if !ok || !strings.Contains(td.Err, "panic: boom") {
		t.Fatalf("root span not closed with the panic (found %v, trace %+v)", ok, td)
	}
}

// TestMixedLoadHistograms is the acceptance-criteria load: >=1k mixed
// requests through httptest must leave non-zero bucket counts for the
// search, book and track routes, and for the engine-side op and stage
// histograms.
func TestMixedLoadHistograms(t *testing.T) {
	env, _ := newInstrumentedEnv(t)
	src, dst := env.corners()

	var created CreateRideResponse
	if code := env.do(t, "POST", "/v1/rides", CreateRideRequest{
		Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500,
	}, &created); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	r := env.eng.Ride(index.RideID(created.RideID))
	g := env.city.Graph
	mid1 := toJSON(g.Point(r.Route[len(r.Route)/4]))
	mid2 := toJSON(g.Point(r.Route[3*len(r.Route)/4]))
	search := SearchRequest{
		Source: mid1, Dest: mid2,
		Earliest: 0, Latest: 5000, WalkLimit: 900,
	}

	// 1050 mixed requests from 8 goroutines: search, track, health,
	// booking attempts (mostly 409s once seats run out — still observed),
	// malformed bodies (4xx).
	const goroutines, perG = 8, 132
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := env.srv.Client()
			for i := 0; i < perG; i++ {
				switch i % 6 {
				case 0, 1:
					env.do(t, "POST", "/v1/search", search, nil)
				case 2:
					now := float64(900 + i)
					env.do(t, "POST", "/v1/track", TrackRequest{RideID: created.RideID, Now: &now}, nil)
				case 3:
					var found SearchResponse
					env.do(t, "POST", "/v1/search", search, &found)
					if len(found.Matches) > 0 {
						env.do(t, "POST", "/v1/bookings", BookRequest{
							Match: found.Matches[0], Request: search,
						}, nil)
					} else {
						env.do(t, "POST", "/v1/bookings", BookRequest{
							Match: MatchJSON{RideID: 999999}, Request: search,
						}, nil)
					}
				case 4:
					env.do(t, "GET", "/v1/healthz", nil, nil)
				case 5:
					resp, err := client.Post(env.srv.URL+"/v1/search", "application/json", strings.NewReader("{"))
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	text := scrapeProm(t, env)
	for _, route := range []string{"/v1/search", "/v1/bookings", "/v1/track"} {
		series := fmt.Sprintf(`xar_http_request_duration_seconds_count{route=%q}`, route)
		if v := promValue(t, text, series); v == 0 {
			t.Fatalf("route %s histogram empty after mixed load", route)
		}
	}
	for _, op := range []string{"search", "track"} {
		series := fmt.Sprintf(`xar_op_duration_seconds_count{op=%q}`, op)
		if v := promValue(t, text, series); v == 0 {
			t.Fatalf("engine op %s histogram empty after mixed load", op)
		}
	}
	if v := promValue(t, text, `xar_search_stage_duration_seconds_count{stage="side_lookup"}`); v == 0 {
		t.Fatal("stage histograms empty after mixed load")
	}
}

// TestHealthzUptimeAndEngine checks the satellite healthz fields.
func TestHealthzUptimeAndEngine(t *testing.T) {
	env, _ := newInstrumentedEnv(t)
	src, dst := env.corners()
	env.do(t, "POST", "/v1/rides", CreateRideRequest{Source: src, Dest: dst, Departure: 1000}, nil)

	var h HealthResponse
	if code := env.do(t, "GET", "/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if h.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %v", h.UptimeSeconds)
	}
	if h.Engine.RidesCreated != 1 {
		t.Fatalf("engine counters not surfaced: %+v", h.Engine)
	}
	if h.LookToBook != 0 || h.MatchRate != 0 {
		t.Fatalf("ratios with no searches should be 0: %+v", h)
	}
}
