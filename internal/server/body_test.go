package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// seededEnv is a test env with four rides between the city's corners, a
// search along their route and the first match it returns.
func seededEnv(t testing.TB) (*testEnv, SearchRequest, MatchJSON) {
	t.Helper()
	env := newTestEnv(t)
	src, dst := env.corners()
	for i := 0; i < 4; i++ {
		var created CreateRideResponse
		body := CreateRideRequest{Source: src, Dest: dst, Departure: float64(1000 + 100*i), DetourLimit: 2000}
		if code := env.do(t, "POST", "/v1/rides", body, &created); code != http.StatusCreated {
			t.Fatalf("create ride %d: status %d", i, code)
		}
	}
	r := env.eng.Ride(1)
	g := env.city.Graph
	sr := SearchRequest{
		Source:   toJSON(g.Point(r.Route[len(r.Route)/4])),
		Dest:     toJSON(g.Point(r.Route[3*len(r.Route)/4])),
		Earliest: 0, Latest: 5000, WalkLimit: 900,
	}
	var found SearchResponse
	if code := env.do(t, "POST", "/v1/search", sr, &found); code != http.StatusOK || len(found.Matches) == 0 {
		t.Fatalf("seed search: status %d, %d matches", code, len(found.Matches))
	}
	return env, sr, found.Matches[0]
}

// serve sends a raw body straight through the server's handler.
func (env *testEnv) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	env.handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func mustJSON(t testing.TB, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// errorOf returns the error field of a JSON error body, or "" when the
// body is not one.
func errorOf(rec *httptest.ResponseRecorder) string {
	var eb errorBody
	if json.Unmarshal(rec.Body.Bytes(), &eb) != nil {
		return ""
	}
	return eb.Error
}

// trailingBodies are a valid body followed by a non-JSON tail and by a
// second JSON value.
func trailingBodies(valid []byte) [][]byte {
	return [][]byte{
		append(append([]byte(nil), valid...), " trailing garbage"...),
		append(append([]byte(nil), valid...), `{"k":1}`...),
	}
}

// TestBodyRejectsTrailingData: every route that decodes a JSON body
// answers 400 to a valid body with anything but whitespace after it,
// and still accepts the newline json.Encoder writes.
func TestBodyRejectsTrailingData(t *testing.T) {
	env, sr, m := seededEnv(t)
	src, dst := env.corners()
	now := 5.0
	for _, tc := range []struct {
		method, path string
		body         interface{}
	}{
		{"POST", "/v1/rides", CreateRideRequest{Source: src, Dest: dst, Departure: 1000}},
		{"POST", "/v1/search", sr},
		{"POST", "/v1/search/batch", BatchSearchRequest{Requests: []SearchRequest{sr}}},
		{"POST", "/v1/bookings", BookRequest{Match: m, Request: sr}},
		{"POST", "/v1/track", TrackRequest{RideID: 4, Now: &now}},
		{"DELETE", "/v1/bookings", CancelRequest{RideID: 1, PickupNode: 0, DropoffNode: 1}},
	} {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			valid := mustJSON(t, tc.body)
			for _, body := range trailingBodies(valid) {
				rec := env.serve(tc.method, tc.path, body)
				if rec.Code != http.StatusBadRequest || errorOf(rec) != "bad request body: trailing data" {
					t.Errorf("body %q: status %d %q, want 400 \"bad request body: trailing data\"", body, rec.Code, rec.Body.Bytes())
				}
			}
			rec := env.serve(tc.method, tc.path, append(valid, '\n'))
			if strings.HasPrefix(errorOf(rec), "bad request body") {
				t.Errorf("body with a trailing newline refused: %d %q", rec.Code, rec.Body.Bytes())
			}
		})
	}
}

// checkBodyResponse asserts what every answer to a hostile body must
// hold: no 5xx (a handler panic is a 500 too), and a JSON error on every
// 4xx.
func checkBodyResponse(t *testing.T, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 500 {
		t.Fatalf("body %q: status %d %q", body, rec.Code, rec.Body.Bytes())
	}
	if rec.Code >= 400 && errorOf(rec) == "" {
		t.Fatalf("body %q: status %d without a JSON error: %q", body, rec.Code, rec.Body.Bytes())
	}
}

// emptyBodies are seeds of both fuzzers: no body, and a JSON null.
var emptyBodies = [][]byte{{}, []byte("null")}

// hostileRequests returns sr with its coordinates, and with its windows
// and walk limit, at ±1e308.
func hostileRequests(sr SearchRequest) (far, wide SearchRequest) {
	far, wide = sr, sr
	far.Source = PointJSON{Lat: 1e308, Lng: -1e308}
	far.Dest = PointJSON{Lat: -1e308, Lng: 1e308}
	wide.Earliest, wide.Latest, wide.WalkLimit = -1e308, 1e308, 1e308
	return far, wide
}

func FuzzSearchHandler(f *testing.F) {
	env, sr, _ := seededEnv(f)
	far, wide := hostileRequests(sr)
	valid := mustJSON(f, sr)
	seeds := append(trailingBodies(valid), valid, mustJSON(f, far), mustJSON(f, wide))
	for _, k := range []int{-1, 1<<32 + 5} {
		s := sr
		s.K = k
		seeds = append(seeds, mustJSON(f, s))
	}
	for _, s := range append(seeds, emptyBodies...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBodyResponse(t, body, env.serve("POST", "/v1/search", body))
	})
}

func FuzzBookHandler(f *testing.F) {
	env, sr, m := seededEnv(f)
	far, wide := hostileRequests(sr)
	valid := mustJSON(f, BookRequest{Match: m, Request: sr})
	seeds := append(trailingBodies(valid), valid,
		mustJSON(f, BookRequest{Match: m, Request: far}),
		mustJSON(f, BookRequest{Match: m, Request: wide}))
	for _, c := range []int{-1, 1<<32 + 5} {
		pu, do := m, m
		pu.PickupCluster, do.DropoffCluster = c, c
		seeds = append(seeds, mustJSON(f, BookRequest{Match: pu, Request: sr}), mustJSON(f, BookRequest{Match: do, Request: sr}))
	}
	for _, s := range append(seeds, emptyBodies...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBodyResponse(t, body, env.serve("POST", "/v1/bookings", body))
		if err := env.eng.Index().CheckInvariants(); err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
	})
}
