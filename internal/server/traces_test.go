package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"xar/internal/audit"
	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/journal"
	"xar/internal/memsize"
	"xar/internal/profile"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// tracedEnv is testEnv plus an always-sampling tracer shared between the
// engine and the server, a ride-event journal, an invariant auditor and
// a match-quality collector with the shadow matcher at sample rate 1 —
// the full wiring a production binary uses, at trace rate 1 so every
// request records.
type tracedEnv struct {
	*testEnv
	tracer  *telemetry.Tracer
	reg     *telemetry.Registry
	journal *journal.Journal
	auditor *audit.Auditor
	quality *quality.Collector
}

func newTracedEnv(t testing.TB) *tracedEnv {
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
	tr := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1})
	jr := journal.New(journal.Config{Registry: reg})
	qc := quality.New(reg)
	cfg := core.DefaultConfig()
	cfg.Telemetry = reg
	cfg.Tracer = tr
	cfg.Journal = jr
	cfg.Quality = qc
	cfg.ShadowSampleRate = 1
	// On-demand sweeps only (no background worker): /v1/memory and the
	// xar_memsize_* gauges are live, and tests stay deterministic.
	cfg.Memory = memsize.NewRegistry()
	// Same policy for the continuous profiler: captures only when a test
	// asks (CaptureNow), no CPU window, no capture worker.
	cfg.Profiling = profile.New(profile.Config{Registry: reg, CPUWindow: -1})
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	auditor := audit.New(audit.Config{
		Target: audit.Target{
			View:    eng.Index(),
			Graph:   city.Graph,
			Epsilon: d.Epsilon(),
			Journal: jr,
			Quality: qc,
		},
		Registry:   reg,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceStore: tr.Store(),
	})
	s := httptest.NewServer(New(eng, nil,
		WithTelemetry(reg), WithTracer(tr), WithJournal(jr), WithAuditor(auditor), WithQuality(qc)).Handler())
	t.Cleanup(s.Close)
	return &tracedEnv{
		testEnv: &testEnv{srv: s, eng: eng, city: city},
		tracer:  tr,
		reg:     reg,
		journal: jr,
		auditor: auditor,
		quality: qc,
	}
}

// doRaw issues a request with optional extra headers and returns the
// response (body unconsumed) for header/trace assertions.
func (env *tracedEnv) doRaw(t testing.TB, method, path, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, env.srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func (env *tracedEnv) searchBody(t testing.TB) string {
	t.Helper()
	src, dst := env.corners()
	var created CreateRideResponse
	code := env.do(t, "POST", "/v1/rides", CreateRideRequest{
		Source: src, Dest: dst, Departure: 1000, Seats: 3, DetourLimit: 2500,
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create ride: %d", code)
	}
	r := env.eng.Ride(1)
	g := env.city.Graph
	mid1 := toJSON(g.Point(r.Route[len(r.Route)/4]))
	mid2 := toJSON(g.Point(r.Route[3*len(r.Route)/4]))
	b, err := json.Marshal(SearchRequest{Source: mid1, Dest: mid2, Latest: 5000, WalkLimit: 900})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitForTrace polls the store until id's trace is sealed. The root span
// ends after the handler returns, so a client can observe the response
// before the trace lands.
func waitForTrace(t testing.TB, tr *telemetry.Tracer, hexID string) {
	t.Helper()
	id, ok := telemetry.ParseTraceID(hexID)
	if !ok {
		t.Fatalf("bad trace id %q", hexID)
	}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if _, ok := tr.Store().Get(id); ok {
			return
		}
	}
	t.Fatalf("trace %s never landed in the store", hexID)
}

// spanNamesInDoc flattens a TraceDoc's tree into a name multiset.
func spanNamesInDoc(doc telemetry.TraceDoc) map[string]int {
	names := map[string]int{}
	var walk func(sd telemetry.SpanDoc)
	walk = func(sd telemetry.SpanDoc) {
		names[sd.Name]++
		for _, c := range sd.Children {
			walk(c)
		}
	}
	for _, r := range doc.Tree {
		walk(r)
	}
	return names
}

// TestTracesEndpoint drives a search over HTTP and asserts the trace is
// browsable: listed under op=search (the engine span inside the HTTP
// root), and resolvable by ID to a tree that descends route → search →
// side_lookup.
func TestTracesEndpoint(t *testing.T) {
	env := newTracedEnv(t)
	body := env.searchBody(t)
	resp := env.doRaw(t, "POST", "/v1/search", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Xar-Trace-Id")
	if len(traceID) != 32 {
		t.Fatalf("X-Xar-Trace-Id = %q", traceID)
	}
	waitForTrace(t, env.tracer, traceID)

	var list TracesResponse
	if code := env.do(t, "GET", "/v1/traces?op=search", nil, &list); code != http.StatusOK {
		t.Fatalf("list traces: %d", code)
	}
	var doc *telemetry.TraceDoc
	for i := range list.Traces {
		if list.Traces[i].TraceID == traceID {
			doc = &list.Traces[i]
		}
	}
	if doc == nil {
		t.Fatalf("search trace %s not in op=search listing (%d traces)", traceID, len(list.Traces))
	}
	if doc.Root != "/v1/search" {
		t.Fatalf("root = %q, want /v1/search", doc.Root)
	}

	var byID telemetry.TraceDoc
	if code := env.do(t, "GET", "/v1/traces/"+traceID, nil, &byID); code != http.StatusOK {
		t.Fatalf("get trace: %d", code)
	}
	names := spanNamesInDoc(byID)
	if names["/v1/search"] != 1 || names["search"] != 1 || names["side_lookup"] != 1 {
		t.Fatalf("span names = %v", names)
	}
	if names["search_shard"] != 0 {
		t.Fatalf("a search trace has a per-shard span: %v", names)
	}
	if byID.Status != "ok" {
		t.Fatalf("status = %q", byID.Status)
	}

	// The HTTP root carries the response status as an attribute.
	if got := byID.Tree[0].Attrs["status"]; got != float64(200) {
		t.Fatalf("root status attr = %v", got)
	}
}

// TestTracesEndpointValidation covers the error paths: bad filters, bad
// IDs, unknown IDs.
func TestTracesEndpointValidation(t *testing.T) {
	env := newTracedEnv(t)
	for _, path := range []string{
		"/v1/traces?min_ms=potato",
		"/v1/traces?min_ms=-1",
		"/v1/traces?min_ms=NaN",
		"/v1/traces?min_ms=Inf",
		"/v1/traces?min_ms=-Inf",
		"/v1/traces?status=weird",
		"/v1/traces?limit=0",
		"/v1/traces?limit=-3",
		"/v1/traces?limit=10001",
		"/v1/traces?min_mss=5",
		"/v1/traces?op=search&bogus=1",
		"/v1/traces/nothex",
	} {
		resp := env.doRaw(t, "GET", path, "", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
			continue
		}
		// Every rejection is a JSON error body, not a bare status.
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
			t.Errorf("GET %s: body not a JSON error (%v, %+v)", path, err, body)
		}
	}
	// Valid filters at the boundary still pass.
	for _, path := range []string{
		"/v1/traces?limit=10000",
		"/v1/traces?min_ms=0",
		"/v1/traces?op=search&min_ms=1.5&status=ok&limit=5",
	} {
		if resp := env.doRaw(t, "GET", path, "", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	if resp := env.doRaw(t, "GET", "/v1/traces/0123456789abcdef0123456789abcdef", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", resp.StatusCode)
	}
}

// TestTracesDisabled: without a tracer the endpoints 404 but every
// response still carries a minted X-Xar-Trace-Id for log correlation.
func TestTracesDisabled(t *testing.T) {
	env := newTestEnv(t)
	resp, err := http.Get(env.srv.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/traces without tracer = %d, want 404", resp.StatusCode)
	}
	hresp, err := http.Get(env.srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if id := hresp.Header.Get("X-Xar-Trace-Id"); len(id) != 32 {
		t.Fatalf("X-Xar-Trace-Id without tracer = %q, want minted ID", id)
	}
}

// TestTraceparentHonoured: a sampled upstream traceparent forces
// recording under the caller's trace ID even past head sampling, and the
// remote parent span ID is preserved on the root.
func TestTraceparentHonoured(t *testing.T) {
	env := newTracedEnv(t)
	upstream := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	resp := env.doRaw(t, "GET", "/v1/healthz", "", map[string]string{"traceparent": upstream})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	const wantID = "4bf92f3577b34da6a3ce929d0e0e4736"
	if got := resp.Header.Get("X-Xar-Trace-Id"); got != wantID {
		t.Fatalf("X-Xar-Trace-Id = %q, want upstream trace %q", got, wantID)
	}
	waitForTrace(t, env.tracer, wantID)
	id, _ := telemetry.ParseTraceID(wantID)
	td, ok := env.tracer.Store().Get(id)
	if !ok {
		t.Fatal("upstream-sampled trace not recorded")
	}
	if td.Spans[len(td.Spans)-1].Parent.String() != "00f067aa0ba902b7" {
		t.Fatalf("root parent = %s, want remote parent", td.Spans[len(td.Spans)-1].Parent)
	}

	// A malformed traceparent must not break the request; a fresh ID is
	// minted instead.
	resp = env.doRaw(t, "GET", "/v1/healthz", "", map[string]string{"traceparent": "garbage"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with bad traceparent: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Xar-Trace-Id"); len(got) != 32 || got == wantID {
		t.Fatalf("bad traceparent should mint a fresh ID, got %q", got)
	}
}

// TestTraceparentUnsampledNotRecorded: flags=00 leaves the recording
// decision to head sampling; with an effectively-never sampler the trace
// must not record, but the upstream ID is still echoed for correlation.
func TestTraceparentUnsampledNotRecorded(t *testing.T) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1 << 20})
	tr.Sample() // burn the sequence's first always-sampled slot
	s := httptest.NewServer(New(eng, nil, WithTracer(tr)).Handler())
	defer s.Close()

	upstream := "00-aaaabbbbccccddddeeeeffff00001111-00f067aa0ba902b7-00"
	req, _ := http.NewRequest("GET", s.URL+"/v1/healthz", nil)
	req.Header.Set("traceparent", upstream)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Xar-Trace-Id"); got != "aaaabbbbccccddddeeeeffff00001111" {
		t.Fatalf("X-Xar-Trace-Id = %q, want upstream ID", got)
	}
	if n := tr.Store().Len(); n != 0 {
		t.Fatalf("unsampled traceparent recorded %d traces", n)
	}
}

// TestExemplarResolvesOverHTTP is acceptance criterion 3's metrics half:
// after traffic, a bucket line in /v1/metrics/prom carries a trace-ID
// exemplar and that ID resolves via /v1/traces/{id}.
func TestExemplarResolvesOverHTTP(t *testing.T) {
	env := newTracedEnv(t)
	body := env.searchBody(t)
	for i := 0; i < 3; i++ {
		if resp := env.doRaw(t, "POST", "/v1/search", body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("search: %d", resp.StatusCode)
		}
	}
	resp := env.doRaw(t, "GET", "/v1/metrics/prom", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	re := regexp.MustCompile(`xar_op_duration_seconds_bucket\{[^}]*op="search"[^}]*\} \d+ # \{trace_id="([0-9a-f]{32})"\}`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no search bucket exemplar in exposition:\n%s", firstLines(text, 40))
	}
	waitForTrace(t, env.tracer, m[1])
	var doc telemetry.TraceDoc
	if code := env.do(t, "GET", "/v1/traces/"+m[1], nil, &doc); code != http.StatusOK {
		t.Fatalf("exemplar trace %s does not resolve: %d", m[1], code)
	}
	if doc.Root != "/v1/search" {
		t.Fatalf("exemplar trace root = %q", doc.Root)
	}
}

// TestAccessLogCarriesTraceID: the structured access-log record includes
// the same trace_id echoed to the client.
func TestAccessLogCarriesTraceID(t *testing.T) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(d, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	s := httptest.NewServer(New(eng, nil, WithAccessLog(logger)).Handler())
	defer s.Close()

	resp, err := http.Get(s.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	echoed := resp.Header.Get("X-Xar-Trace-Id")

	// The access-log write happens after the handler returns, so the
	// client can observe the response first; wait for the line.
	var line string
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if line = strings.TrimSpace(logBuf.String()); line != "" {
			break
		}
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log not JSON: %v\n%q", err, line)
	}
	if got, _ := rec["trace_id"].(string); got != echoed || len(echoed) != 32 {
		t.Fatalf("access log trace_id = %q, header = %q", got, echoed)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the log writer and the
// test goroutine race otherwise).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
