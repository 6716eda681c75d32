package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"xar/internal/quality"
)

// TestQualityEndpoint drives traffic through the fully wired env and
// asserts GET /v1/quality reports the funnel, the slack distribution
// and the shadow section with live numbers.
func TestQualityEndpoint(t *testing.T) {
	env := newTracedEnv(t)
	body := env.searchBody(t)

	// A matching search and a booking: funnel gains matched candidates,
	// the booking observes a slack ratio.
	var sr SearchResponse
	if code := env.do(t, "POST", "/v1/search", json.RawMessage(body), &sr); code != http.StatusOK {
		t.Fatalf("search: %d", code)
	}
	if len(sr.Matches) == 0 {
		t.Fatal("seed search found no matches")
	}
	var req SearchRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	var bk BookingJSON
	if code := env.do(t, "POST", "/v1/bookings", BookRequest{Match: sr.Matches[0], Request: req}, &bk); code != http.StatusCreated {
		t.Fatalf("book: %d", code)
	}
	// A no-match search: riding against the ride's direction is servable
	// (both clusters walkable) but every candidate fails the stop-order
	// check, so the funnel gains rejections and the shadow matcher gets a
	// no-match task.
	noMatch := req
	noMatch.Source, noMatch.Dest = req.Dest, req.Source
	var empty SearchResponse
	if code := env.do(t, "POST", "/v1/search", noMatch, &empty); code != http.StatusOK {
		t.Fatalf("no-match search: %d", code)
	}
	env.eng.ShadowFlush()

	var qr QualityResponse
	if code := env.do(t, "GET", "/v1/quality", nil, &qr); code != http.StatusOK {
		t.Fatalf("quality: %d", code)
	}
	for i := 0; i < quality.NumStages; i++ {
		st := quality.StageName(i)
		if _, ok := qr.Funnel[st]; !ok {
			t.Errorf("funnel missing stage %q: %v", st, qr.Funnel)
		}
	}
	if qr.Funnel["matched"] == 0 {
		t.Fatalf("matched stage = 0 after a matching search: %v", qr.Funnel)
	}
	if qr.CandidatesExamined == 0 {
		t.Fatal("candidates_examined = 0 after searches")
	}
	if qr.DetourSlack.Count == 0 {
		t.Fatal("detour slack histogram empty after a booking")
	}
	if qr.DetourSlack.P99 < 0 {
		t.Fatalf("slack p99 = %v", qr.DetourSlack.P99)
	}
	if !qr.Shadow.Enabled {
		t.Fatal("shadow matcher not reported enabled (ShadowSampleRate=1)")
	}
	if qr.MatchRate <= 0 {
		t.Fatalf("match_rate = %v after a matching search", qr.MatchRate)
	}
	for _, con := range []string{quality.ConstraintWalk, quality.ConstraintWindow,
		quality.ConstraintDetour, quality.ConstraintOrder, quality.ConstraintNone} {
		if _, ok := qr.Shadow.Unlocks[con]; !ok {
			t.Errorf("shadow unlocks missing constraint %q: %v", con, qr.Shadow.Unlocks)
		}
	}
	// A full ride is in no list, so no search examines one: seat
	// saturation is the xar_index_full_rides gauge, not a stage or a key.
	if len(qr.Funnel) != 5 || len(qr.Shadow.Unlocks) != 5 {
		t.Errorf("funnel has %d stages and unlocks %d keys, want 5 and 5: %v %v", len(qr.Funnel), len(qr.Shadow.Unlocks), qr.Funnel, qr.Shadow.Unlocks)
	}
	if _, ok := qr.Funnel["capacity"]; ok {
		t.Errorf("funnel still reports a capacity stage: %v", qr.Funnel)
	}
}

// TestQualityEndpointValidation: unknown query parameters are rejected
// with a JSON error, and a server without a collector 404s.
func TestQualityEndpointValidation(t *testing.T) {
	env := newTracedEnv(t)
	resp := env.doRaw(t, "GET", "/v1/quality?bogus=1", "", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus param = %d, want 400", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("rejection not a JSON error (%v, %+v)", err, body)
	}

	plain := newTestEnv(t)
	resp2, err := http.Get(plain.srv.URL + "/v1/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/quality without collector = %d, want 404", resp2.StatusCode)
	}
}

// TestHealthzCarriesBuildInfo: the /v1/healthz body reports the same
// build identity the xar_build_info metric exposes.
func TestHealthzCarriesBuildInfo(t *testing.T) {
	env := newTracedEnv(t)
	var h HealthResponse
	if code := env.do(t, "GET", "/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h.Build.Version == "" || h.Build.GoVersion == "" {
		t.Fatalf("healthz build identity incomplete: %+v", h.Build)
	}
}
