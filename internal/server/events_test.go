package server

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"xar/internal/journal"
)

// TestRideTimelineEndpoint drives a create + search over HTTP and reads
// the ride's journaled lifecycle back through the API.
func TestRideTimelineEndpoint(t *testing.T) {
	env := newTracedEnv(t)
	body := env.searchBody(t) // creates ride 1 via POST /v1/rides
	if resp := env.doRaw(t, "POST", "/v1/search", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d", resp.StatusCode)
	}

	var tl TimelineResponse
	if code := env.do(t, "GET", "/v1/rides/1/timeline", nil, &tl); code != http.StatusOK {
		t.Fatalf("timeline: %d", code)
	}
	if tl.RideID != 1 || len(tl.Events) == 0 {
		t.Fatalf("timeline = %+v", tl)
	}
	if tl.Events[0].Type != journal.Created {
		t.Fatalf("first event = %q, want created", tl.Events[0].Type)
	}
	if tl.Events[0].TraceID == "" {
		t.Fatal("created event lost its trace cross-link")
	}
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i-1].Seq >= tl.Events[i].Seq {
			t.Fatalf("timeline not seq-ascending at %d", i)
		}
	}

	// limit keeps the most recent events.
	full := len(tl.Events)
	if code := env.do(t, "GET", "/v1/rides/1/timeline?limit=1", nil, &tl); code != http.StatusOK {
		t.Fatalf("limited timeline: %d", code)
	}
	if len(tl.Events) != 1 || tl.Events[0].Seq != uint64(full) {
		t.Fatalf("limit=1 kept %d events (seq %d), want newest", len(tl.Events), tl.Events[0].Seq)
	}

	// Unknown ride → 404 with a JSON error body.
	resp := env.doRaw(t, "GET", "/v1/rides/424242/timeline", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ride timeline = %d, want 404", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("404 body not a JSON error (%v, %+v)", err, eb)
	}
}

// TestGPSTrackedRideTimeline: a ride advanced by GPS reports journals the
// riders it picks up and drops off, and counts its track calls, exactly as
// one advanced by the clock does.
func TestGPSTrackedRideTimeline(t *testing.T) {
	env := newTracedEnv(t)
	src, dst := env.corners()
	var created CreateRideResponse
	env.do(t, "POST", "/v1/rides", CreateRideRequest{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500}, &created)
	r := env.eng.Ride(1)
	g := env.city.Graph
	sr := SearchRequest{
		Source: toJSON(g.Point(r.Route[len(r.Route)/3])), Dest: toJSON(g.Point(r.Route[2*len(r.Route)/3])),
		Latest: 5000, WalkLimit: 900,
	}
	var found SearchResponse
	env.do(t, "POST", "/v1/search", sr, &found)
	if len(found.Matches) == 0 {
		t.Fatal("corridor search found no match on the seeded world")
	}
	if code := env.do(t, "POST", "/v1/bookings", BookRequest{Match: found.Matches[0], Request: sr}, nil); code != http.StatusCreated {
		t.Fatalf("book: %d", code)
	}

	// Report from the destination: the vehicle has passed every via-point.
	r = env.eng.Ride(1)
	gps := toJSON(g.Point(r.Route[len(r.Route)-1]))
	var tr TrackResponse
	if code := env.do(t, "POST", "/v1/track", TrackRequest{RideID: 1, GPS: &gps}, &tr); code != http.StatusOK || !tr.Arrived {
		t.Fatalf("gps track from the destination: %d, arrived %v", code, tr.Arrived)
	}
	var tl TimelineResponse
	if code := env.do(t, "GET", "/v1/rides/1/timeline", nil, &tl); code != http.StatusOK {
		t.Fatalf("timeline: %d", code)
	}
	counts := map[journal.EventType]int{}
	for _, ev := range tl.Events {
		counts[ev.Type]++
	}
	if counts[journal.PickedUp] != 1 || counts[journal.DroppedOff] != 1 {
		t.Fatalf("timeline of a GPS-tracked ride with one rider: %v", counts)
	}
	if n := env.eng.Metrics().TrackCalls; n != 1 {
		t.Fatalf("Metrics.TrackCalls = %d after one GPS report", n)
	}
}

// TestEventsEndpoint covers the global tail's filters and the since
// cursor contract.
func TestEventsEndpoint(t *testing.T) {
	env := newTracedEnv(t)
	body := env.searchBody(t)
	if resp := env.doRaw(t, "POST", "/v1/search", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d", resp.StatusCode)
	}

	var ev EventsResponse
	if code := env.do(t, "GET", "/v1/events", nil, &ev); code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
	if len(ev.Events) == 0 || ev.LastSeq == 0 {
		t.Fatalf("events = %+v", ev)
	}
	for i := 1; i < len(ev.Events); i++ {
		if ev.Events[i-1].Seq >= ev.Events[i].Seq {
			t.Fatalf("tail not seq-ascending at %d", i)
		}
	}

	var created EventsResponse
	if code := env.do(t, "GET", "/v1/events?type=created&limit=5", nil, &created); code != http.StatusOK {
		t.Fatalf("filtered events: %d", code)
	}
	if len(created.Events) == 0 {
		t.Fatal("no created events in tail")
	}
	for _, e := range created.Events {
		if e.Type != journal.Created {
			t.Fatalf("type filter leaked %q", e.Type)
		}
	}

	// The advertised cursor drains the stream.
	var after EventsResponse
	if code := env.do(t, "GET", "/v1/events?since="+itoa(ev.LastSeq), nil, &after); code != http.StatusOK {
		t.Fatalf("since query: %d", code)
	}
	if len(after.Events) != 0 {
		t.Fatalf("since=last_seq returned %d events, want 0", len(after.Events))
	}
}

func itoa(n uint64) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestEventsEndpointValidation: query hardening — same contract as
// /v1/traces (unknown params rejected, JSON error bodies, limit caps).
func TestEventsEndpointValidation(t *testing.T) {
	env := newTracedEnv(t)
	for _, path := range []string{
		"/v1/events?type=teleported",
		"/v1/events?since=-1",
		"/v1/events?since=potato",
		"/v1/events?limit=0",
		"/v1/events?limit=-2",
		"/v1/events?limit=10001",
		"/v1/events?limit=potato",
		"/v1/events?typo=created",
		"/v1/events?type=created&bogus=1",
		"/v1/rides/1/timeline?limit=0",
		"/v1/rides/1/timeline?limit=10001",
		"/v1/rides/1/timeline?bogus=1",
	} {
		resp := env.doRaw(t, "GET", path, "", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
			continue
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
			t.Errorf("GET %s: body not a JSON error (%v, %+v)", path, err, eb)
		}
	}
	// Boundary values still pass.
	for _, path := range []string{
		"/v1/events?limit=10000",
		"/v1/events?since=0",
		"/v1/events?type=book_conflict_retried",
	} {
		if resp := env.doRaw(t, "GET", path, "", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestEventsDisabled: a journal-less server 404s both endpoints with an
// explanatory error.
func TestEventsDisabled(t *testing.T) {
	env := newTestEnv(t)
	for _, path := range []string{"/v1/events", "/v1/rides/1/timeline"} {
		resp, err := http.Get(env.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without journal = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHealthzAuditFold: the health endpoint reports the auditor block and
// escalates to "page" once any invariant violation is on record.
func TestHealthzAuditFold(t *testing.T) {
	env := newTracedEnv(t)
	env.auditor.Audit()

	var h HealthResponse
	if code := env.do(t, "GET", "/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h.Status != "ok" || h.Audit == nil || h.Audit.TotalViolations != 0 {
		t.Fatalf("healthy healthz = %+v (audit %+v)", h, h.Audit)
	}

	// Seed a causality violation behind the engine's back and sweep.
	env.journal.Record(journal.Event{Type: journal.Booked, Ride: 999999})
	env.auditor.Audit()

	if code := env.do(t, "GET", "/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h.Status != "page" {
		t.Fatalf("violated healthz status = %q, want page", h.Status)
	}
	if h.Audit == nil || h.Audit.TotalViolations == 0 || h.Audit.LastViolations == 0 {
		t.Fatalf("audit block = %+v", h.Audit)
	}
}

// TestDebugBundleAuditArtifacts: a bundle from a server with a violation
// on record carries audit.json and the violating rides' timelines.
func TestDebugBundleAuditArtifacts(t *testing.T) {
	env := newTracedEnv(t)
	body := env.searchBody(t) // ride 1 exists and is journaled
	_ = body
	env.journal.Record(journal.Event{Type: journal.Completed, Ride: 1})
	env.journal.Record(journal.Event{Type: journal.Completed, Ride: 1}) // double-terminal
	env.auditor.Audit()

	resp := env.doRaw(t, "GET", "/v1/debug/bundle", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle: %d", resp.StatusCode)
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

	var auditDump struct {
		TotalViolations uint64  `json:"total_violations"`
		Recent          []int64 `json:"recent_violating_rides"`
	}
	if err := json.Unmarshal(members["audit.json"], &auditDump); err != nil {
		t.Fatalf("audit.json: %v (%q)", err, members["audit.json"])
	}
	if auditDump.TotalViolations == 0 || len(auditDump.Recent) == 0 || auditDump.Recent[0] != 1 {
		t.Fatalf("audit.json = %+v", auditDump)
	}
	var timelines []TimelineResponse
	if err := json.Unmarshal(members["audit_timelines.json"], &timelines); err != nil {
		t.Fatalf("audit_timelines.json: %v", err)
	}
	if len(timelines) != 1 || timelines[0].RideID != 1 || len(timelines[0].Events) == 0 {
		t.Fatalf("audit_timelines.json = %+v", timelines)
	}
}
