package xar

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"xar/internal/audit"
	"xar/internal/core"
	"xar/internal/journal"
	"xar/internal/profile"
	"xar/internal/quality"
	"xar/internal/server"
	"xar/internal/telemetry"
)

// TestObservabilityMetricFamiliesMatchRegistry: the xar_* metric
// families OBSERVABILITY.md names are exactly the ones a fully wired
// process registers. The process is xarserver's wiring with every
// observer on (telemetry, tracer, journal, quality funnel and shadow
// matcher, recorder, SLO engine, profiler, auditor), after one request
// of each kind, one recorder tick, one profile capture, one memory
// sweep and one audit sweep; the families are the `# TYPE` lines of its
// /v1/metrics/prom. A doc name followed by `*` is a prefix, not a
// family, and is skipped.
func TestObservabilityMetricFamiliesMatchRegistry(t *testing.T) {
	w := world(t)
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1, SlowThreshold: 50 * time.Millisecond})
	jr := journal.New(journal.Config{Registry: reg})
	qc := quality.New(reg)
	cfg := core.DefaultConfig()
	cfg.DefaultDetourLimit = w.Scale.DetourLimit
	cfg.Telemetry, cfg.Tracer, cfg.Journal, cfg.Quality = reg, tracer, jr, qc
	cfg.ShadowSampleRate = 1
	eng, err := core.NewEngine(w.Disc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	prof := profile.New(profile.Config{Registry: reg, CPUWindow: 10 * time.Millisecond})
	defer prof.Close()
	rec := telemetry.NewRecorder(reg, telemetry.RecorderConfig{})
	slo := telemetry.NewSLOEngine(rec, server.DefaultSLOs(5*time.Millisecond)...)
	auditor := audit.New(audit.Config{
		Target: audit.Target{
			View: eng.Index(), Graph: w.City.Graph, Epsilon: w.Disc.Epsilon(),
			Journal: jr, Quality: qc,
		},
		Registry:   reg,
		TraceStore: tracer.Store(),
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv := server.New(eng, core.NewSocialGraph(), server.WithTelemetry(reg), server.WithTracer(tracer),
		server.WithJournal(jr), server.WithQuality(qc), server.WithProfiler(prof), server.WithAuditor(auditor),
		server.WithRecorder(rec), server.WithSLO(slo))
	h := srv.Handler()

	do := func(method, path string, body, out any) int {
		t.Helper()
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, rd))
		if out != nil && rr.Code < 300 {
			if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
		}
		return rr.Code
	}
	must := func(method, path string, body, out any) {
		t.Helper()
		if code := do(method, path, body, out); code >= 300 {
			t.Fatalf("%s %s: %d", method, path, code)
		}
	}

	// One request of each kind: a ride, a search that finds it, a
	// booking, its cancellation, a track to arrival, a deleted ride, a
	// refused request, and every GET route.
	trip := w.Trips[0]
	var ride server.CreateRideResponse
	create := server.CreateRideRequest{Source: pointJSON(trip.Pickup), Dest: pointJSON(trip.Dropoff), Departure: trip.RequestTime, Seats: 4}
	must("POST", "/v1/rides", create, &ride)
	search := server.SearchRequest{
		Source: pointJSON(trip.Pickup), Dest: pointJSON(trip.Dropoff),
		Earliest: trip.RequestTime - 600, Latest: trip.RequestTime + 900, WalkLimit: 1000,
	}
	var found server.SearchResponse
	must("POST", "/v1/search", search, &found)
	if len(found.Matches) == 0 {
		t.Fatal("the search found no match on the ride it shadows")
	}
	must("POST", "/v1/search/batch", server.BatchSearchRequest{Requests: []server.SearchRequest{search}}, nil)
	var booking server.BookingJSON
	must("POST", "/v1/bookings", server.BookRequest{Match: found.Matches[0], Request: search}, &booking)
	must("DELETE", "/v1/bookings", server.CancelRequest{RideID: booking.RideID, PickupNode: booking.PickupNode, DropoffNode: booking.DropoffNode}, nil)
	now := 1e12
	must("POST", "/v1/track", server.TrackRequest{RideID: ride.RideID, Now: &now}, nil)
	must("POST", "/v1/rides", create, &ride)
	must("DELETE", fmt.Sprintf("/v1/rides/%d", ride.RideID), nil, nil)
	if code := do("POST", "/v1/search", "not a request", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed search: %d, want 400", code)
	}
	eng.ShadowFlush()
	rec.TickNow()
	prof.CaptureNow()
	eng.MemSweep()
	auditor.Audit()
	for _, path := range []string{"/v1/healthz", "/v1/events", "/v1/traces", "/v1/quality", "/v1/memory",
		"/v1/profiles", "/v1/metrics/history", "/v1/slo", "/v1/debug/bundle"} {
		must("GET", path, nil, nil)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/metrics/prom", nil))
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (xar_[a-z0-9_]+) `).FindAllStringSubmatch(rr.Body.String(), -1) {
		registered[m[1]] = true
	}
	if len(registered) == 0 {
		t.Fatalf("no xar_ family in /v1/metrics/prom:\n%s", rr.Body)
	}

	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`(xar_[a-z0-9_]+)(\*?)`).FindAllStringSubmatch(string(doc), -1) {
		if m[2] == "" {
			named[m[1]] = true
		}
	}

	var undocumented, unregistered []string
	for f := range registered {
		if !named[f] {
			undocumented = append(undocumented, f)
		}
	}
	for f := range named {
		if !registered[f] {
			unregistered = append(unregistered, f)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unregistered)
	if len(undocumented) > 0 {
		t.Errorf("registered but named nowhere in OBSERVABILITY.md: %s", strings.Join(undocumented, ", "))
	}
	if len(unregistered) > 0 {
		t.Errorf("named in OBSERVABILITY.md but not registered: %s", strings.Join(unregistered, ", "))
	}
}
