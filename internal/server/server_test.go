package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/roadnet"
)

type testEnv struct {
	srv     *httptest.Server
	handler http.Handler
	eng     *core.Engine
	city    *roadnet.City
}

func newTestEnv(t testing.TB) *testEnv {
	t.Helper()
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
	social := core.NewSocialGraph()
	social.AddFriendship(1, 30)
	h := New(eng, social).Handler()
	s := httptest.NewServer(h)
	t.Cleanup(s.Close)
	return &testEnv{srv: s, handler: h, eng: eng, city: city}
}

func (env *testEnv) do(t testing.TB, method, path string, body, out interface{}) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, env.srv.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func (env *testEnv) corners() (PointJSON, PointJSON) {
	g := env.city.Graph
	a := g.Point(0)
	b := g.Point(roadnet.NodeID(g.NumNodes() - 1))
	return toJSON(a), toJSON(b)
}

func TestHealthz(t *testing.T) {
	env := newTestEnv(t)
	var h HealthResponse
	if code := env.do(t, "GET", "/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if h.Status != "ok" || h.Clusters == 0 || h.Landmarks == 0 {
		t.Fatalf("health: %+v", h)
	}
}

func TestRideLifecycleOverHTTP(t *testing.T) {
	env := newTestEnv(t)
	src, dst := env.corners()

	// Create.
	var created CreateRideResponse
	code := env.do(t, "POST", "/v1/rides", CreateRideRequest{
		Source: src, Dest: dst, Departure: 1000, DetourLimit: 2000,
	}, &created)
	if code != http.StatusCreated || created.RideID == 0 {
		t.Fatalf("create: %d %+v", code, created)
	}

	// Status.
	var status RideStatus
	code = env.do(t, "GET", fmt.Sprintf("/v1/rides/%d", created.RideID), nil, &status)
	if code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}
	if status.SeatsAvail != 3 || status.RouteNodes < 2 {
		t.Fatalf("status: %+v", status)
	}

	// Search along the corridor (use a mid-route point via the engine).
	r := env.eng.Ride(1)
	g := env.city.Graph
	mid1 := toJSON(g.Point(r.Route[len(r.Route)/4]))
	mid2 := toJSON(g.Point(r.Route[3*len(r.Route)/4]))
	var found SearchResponse
	code = env.do(t, "POST", "/v1/search", SearchRequest{
		Source: mid1, Dest: mid2,
		Earliest: 0, Latest: 5000, WalkLimit: 900,
	}, &found)
	if code != http.StatusOK {
		t.Fatalf("search: %d", code)
	}
	if len(found.Matches) == 0 {
		t.Skip("no corridor match; layout-dependent")
	}
	m := found.Matches[0]
	if m.RideID != created.RideID {
		t.Fatalf("matched ride %d", m.RideID)
	}

	// Book.
	var bk BookingJSON
	code = env.do(t, "POST", "/v1/bookings", BookRequest{
		Match: m,
		Request: SearchRequest{
			Source: mid1, Dest: mid2,
			Earliest: 0, Latest: 5000, WalkLimit: 900,
		},
	}, &bk)
	if code != http.StatusCreated {
		t.Fatalf("book: %d", code)
	}
	if bk.ShortestPaths > 4 {
		t.Fatalf("booking ran %d shortest paths", bk.ShortestPaths)
	}

	// Track by time.
	var tr TrackResponse
	now := 1e12
	code = env.do(t, "POST", "/v1/track", TrackRequest{RideID: created.RideID, Now: &now}, &tr)
	if code != http.StatusOK || !tr.Arrived {
		t.Fatalf("track: %d arrived=%v", code, tr.Arrived)
	}

	// The engine counters in healthz reflect the session.
	var health HealthResponse
	if code := env.do(t, "GET", "/v1/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if m := health.Engine; m.RidesCreated != 1 || m.Bookings != 1 || m.Searches != 1 {
		t.Fatalf("healthz engine: %+v", m)
	}
	// The engine counters have one route: /v1/metrics and
	// /v1/metrics/json do not exist.
	for _, gone := range []string{"/v1/metrics", "/v1/metrics/json"} {
		if code := env.do(t, "GET", gone, nil, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", gone, code)
		}
	}

	// Delete.
	if code := env.do(t, "DELETE", fmt.Sprintf("/v1/rides/%d", created.RideID), nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := env.do(t, "GET", fmt.Sprintf("/v1/rides/%d", created.RideID), nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", code)
	}
}

func TestCancelBookingOverHTTP(t *testing.T) {
	env := newTestEnv(t)
	src, dst := env.corners()
	var created CreateRideResponse
	env.do(t, "POST", "/v1/rides", CreateRideRequest{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500}, &created)
	r := env.eng.Ride(1)
	g := env.city.Graph
	sr := SearchRequest{
		Source: toJSON(g.Point(r.Route[len(r.Route)/3])), Dest: toJSON(g.Point(r.Route[2*len(r.Route)/3])),
		Earliest: 0, Latest: 5000, WalkLimit: 900,
	}
	var found SearchResponse
	env.do(t, "POST", "/v1/search", sr, &found)
	if len(found.Matches) == 0 {
		t.Skip("no match; layout-dependent")
	}
	var bk BookingJSON
	if code := env.do(t, "POST", "/v1/bookings", BookRequest{Match: found.Matches[0], Request: sr}, &bk); code != http.StatusCreated {
		t.Fatalf("book: %d", code)
	}
	code := env.do(t, "DELETE", "/v1/bookings", CancelRequest{
		RideID: bk.RideID, PickupNode: bk.PickupNode, DropoffNode: bk.DropoffNode,
	}, nil)
	if code != http.StatusNoContent {
		t.Fatalf("cancel: %d", code)
	}
	// Second cancel must 4xx.
	code = env.do(t, "DELETE", "/v1/bookings", CancelRequest{
		RideID: bk.RideID, PickupNode: bk.PickupNode, DropoffNode: bk.DropoffNode,
	}, nil)
	if code < 400 {
		t.Fatalf("double cancel: %d", code)
	}
}

func TestErrorMapping(t *testing.T) {
	env := newTestEnv(t)
	src, _ := env.corners()

	// Unknown ride → 404.
	now := 5.0
	if code := env.do(t, "POST", "/v1/track", TrackRequest{RideID: 999, Now: &now}, nil); code != http.StatusNotFound {
		t.Fatalf("track unknown: %d", code)
	}
	// Unservable search → 422.
	if code := env.do(t, "POST", "/v1/search", SearchRequest{
		Source: PointJSON{Lat: 10, Lng: 10}, Dest: PointJSON{Lat: 10.1, Lng: 10},
		Latest: 100, WalkLimit: 500,
	}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("unservable search: %d", code)
	}
	// Malformed body → 400.
	req, _ := http.NewRequest("POST", env.srv.URL+"/v1/rides", bytes.NewReader([]byte("{nope")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
	// Unknown fields rejected → 400.
	if code := env.do(t, "POST", "/v1/rides", map[string]interface{}{
		"source": src, "dest": src, "departure": 1, "bogus": true,
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", code)
	}
	// Track without now/gps → 400.
	if code := env.do(t, "POST", "/v1/track", TrackRequest{RideID: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty track: %d", code)
	}
	// Invalid path id → 400.
	if code := env.do(t, "GET", "/v1/rides/abc", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad id: %d", code)
	}
	// Coincident offer endpoints → 400.
	if code := env.do(t, "POST", "/v1/rides", CreateRideRequest{Source: src, Dest: src, Departure: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("coincident offer: %d", code)
	}
}

func TestTrackByGPS(t *testing.T) {
	env := newTestEnv(t)
	src, dst := env.corners()
	var created CreateRideResponse
	env.do(t, "POST", "/v1/rides", CreateRideRequest{Source: src, Dest: dst, Departure: 0}, &created)
	r := env.eng.Ride(1)
	g := env.city.Graph
	gps := toJSON(g.Point(r.Route[len(r.Route)/2]))
	var tr TrackResponse
	if code := env.do(t, "POST", "/v1/track", TrackRequest{RideID: created.RideID, GPS: &gps}, &tr); code != http.StatusOK {
		t.Fatalf("gps track: %d", code)
	}
	if tr.Arrived {
		t.Fatal("mid-route GPS arrived")
	}
	// eng.Ride returns a snapshot; re-fetch to observe the advance.
	if env.eng.Ride(1).Progress == 0 {
		t.Fatal("GPS report did not advance the ride")
	}
}

func TestSocialRankingOverHTTP(t *testing.T) {
	env := newTestEnv(t)
	src, dst := env.corners()
	// Two rides: owner 30 (friend of requester 1) and owner 99.
	for _, owner := range []int64{99, 30} {
		var created CreateRideResponse
		env.do(t, "POST", "/v1/rides", CreateRideRequest{
			Source: src, Dest: dst, Departure: 1000, DetourLimit: 2000, Owner: owner,
		}, &created)
	}
	r := env.eng.Ride(1)
	g := env.city.Graph
	sr := SearchRequest{
		Source: toJSON(g.Point(r.Route[len(r.Route)/4])), Dest: toJSON(g.Point(r.Route[3*len(r.Route)/4])),
		Earliest: 0, Latest: 5000, WalkLimit: 900, Requester: 1,
	}
	var found SearchResponse
	env.do(t, "POST", "/v1/search", sr, &found)
	if len(found.Matches) < 2 {
		t.Skip("need both rides matched; layout-dependent")
	}
	// Ride 2 (owner 30, the friend) must rank first for requester 1.
	if found.Matches[0].RideID != 2 {
		t.Fatalf("friend's ride not ranked first: %+v", found.Matches)
	}
}

func TestConcurrentHTTPTraffic(t *testing.T) {
	env := newTestEnv(t)
	src, dst := env.corners()
	var created CreateRideResponse
	env.do(t, "POST", "/v1/rides", CreateRideRequest{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2000}, &created)
	r := env.eng.Ride(1)
	g := env.city.Graph
	sr := SearchRequest{
		Source: toJSON(g.Point(r.Route[len(r.Route)/4])), Dest: toJSON(g.Point(r.Route[3*len(r.Route)/4])),
		Earliest: 0, Latest: 5000, WalkLimit: 900,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					var out SearchResponse
					if code := env.do(t, "POST", "/v1/search", sr, &out); code != http.StatusOK {
						errs <- fmt.Errorf("search status %d", code)
						return
					}
				} else {
					var out CreateRideResponse
					body := CreateRideRequest{Source: src, Dest: dst, Departure: float64(1000 + w*100 + i)}
					if code := env.do(t, "POST", "/v1/rides", body, &out); code != http.StatusCreated {
						errs <- fmt.Errorf("create status %d", code)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := env.eng.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRideRouteGeoJSON(t *testing.T) {
	env := newTestEnv(t)
	src, dst := env.corners()
	var created CreateRideResponse
	env.do(t, "POST", "/v1/rides", CreateRideRequest{Source: src, Dest: dst, Departure: 0}, &created)

	resp, err := http.Get(env.srv.URL + fmt.Sprintf("/v1/rides/%d/route", created.RideID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/geo+json" {
		t.Fatalf("content type %q", ct)
	}
	var doc struct {
		Type     string `json:"type"`
		Features []struct {
			Type     string `json:"type"`
			Geometry struct {
				Type        string          `json:"type"`
				Coordinates json.RawMessage `json:"coordinates"`
			} `json:"geometry"`
		} `json:"features"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Type != "FeatureCollection" {
		t.Fatalf("type %q", doc.Type)
	}
	// One LineString plus >= 2 via Points.
	if len(doc.Features) < 3 {
		t.Fatalf("%d features", len(doc.Features))
	}
	if doc.Features[0].Geometry.Type != "LineString" {
		t.Fatalf("first feature is %q", doc.Features[0].Geometry.Type)
	}
	var line [][2]float64
	if err := json.Unmarshal(doc.Features[0].Geometry.Coordinates, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) < 2 {
		t.Fatal("route line too short")
	}
	// GeoJSON order is lng,lat: for our NYC-like city lng ≈ -74, lat ≈ 40.7.
	if line[0][0] > 0 || line[0][1] < 0 {
		t.Fatalf("coordinates not in lng,lat order: %v", line[0])
	}
	// Unknown ride → 404.
	resp2, err := http.Get(env.srv.URL + "/v1/rides/999/route")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ride route: %d", resp2.StatusCode)
	}
}

func TestSearchBatchOverHTTP(t *testing.T) {
	env := newTestEnv(t)
	src, dst := env.corners()
	var created CreateRideResponse
	env.do(t, "POST", "/v1/rides", CreateRideRequest{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2000}, &created)
	r := env.eng.Ride(1)
	g := env.city.Graph

	mk := func(fromFrac, toFrac float64) SearchRequest {
		return SearchRequest{
			Source:   toJSON(g.Point(r.Route[int(fromFrac*float64(len(r.Route)-1))])),
			Dest:     toJSON(g.Point(r.Route[int(toFrac*float64(len(r.Route)-1))])),
			Earliest: 0, Latest: 5000, WalkLimit: 900,
		}
	}
	batch := BatchSearchRequest{
		Requests: []SearchRequest{
			mk(0.2, 0.8),
			mk(0.3, 0.7),
			{Source: PointJSON{Lat: 10, Lng: 10}, Dest: PointJSON{Lat: 10.1, Lng: 10}, Latest: 100, WalkLimit: 100},
		},
		K: 5,
	}
	var resp BatchSearchResponse
	if code := env.do(t, "POST", "/v1/search/batch", batch, &resp); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	// Batch results must equal individual searches.
	for i := 0; i < 2; i++ {
		var single SearchResponse
		body := batch.Requests[i]
		body.K = 5
		env.do(t, "POST", "/v1/search", body, &single)
		if len(single.Matches) != len(resp.Results[i].Matches) {
			t.Fatalf("request %d: batch %d vs single %d matches",
				i, len(resp.Results[i].Matches), len(single.Matches))
		}
	}
	// The unservable entry carries an error but doesn't fail the batch.
	if resp.Results[2].Error == "" {
		t.Fatal("unservable batch entry must report an error")
	}
	// Empty and oversized batches are rejected.
	if code := env.do(t, "POST", "/v1/search/batch", BatchSearchRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	big := BatchSearchRequest{Requests: make([]SearchRequest, maxBatchSize+1)}
	if code := env.do(t, "POST", "/v1/search/batch", big, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d", code)
	}
}

// TestRequestBodyLimit: a body past maxBodyBytes is refused with 413
// before it is buffered, and the largest legitimate body — a full
// maxBatchSize batch — is nowhere near the limit.
func TestRequestBodyLimit(t *testing.T) {
	env := newTestEnv(t)
	src, dst := env.corners()
	one := SearchRequest{Source: src, Dest: dst, Earliest: 0, Latest: 5000, WalkLimit: 900}
	batchOf := func(n int) []byte {
		reqs := make([]SearchRequest, n)
		for i := range reqs {
			reqs[i] = one
		}
		b, err := json.Marshal(BatchSearchRequest{Requests: reqs})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	single, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
		want       int
	}{
		{"oversized search", "/v1/search", append(bytes.Repeat([]byte(" "), maxBodyBytes), single...), http.StatusRequestEntityTooLarge},
		{"oversized trailing whitespace", "/v1/search", append(single, bytes.Repeat([]byte(" "), maxBodyBytes)...), http.StatusRequestEntityTooLarge},
		{"oversized batch", "/v1/search/batch", batchOf(40 * maxBatchSize), http.StatusRequestEntityTooLarge},
		{"full batch", "/v1/search/batch", batchOf(maxBatchSize), http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.want == http.StatusRequestEntityTooLarge && len(tc.body) <= maxBodyBytes {
				t.Fatalf("test body is %d bytes, not past the %d limit", len(tc.body), maxBodyBytes)
			}
			resp, err := http.Post(env.srv.URL+tc.path, "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%d-byte body: status %d, want %d", len(tc.body), resp.StatusCode, tc.want)
			}
		})
	}
}

// TestDisabledRoutes pins the one reply every observer route gives on a
// server built without its observer: 404 and this exact body, ahead of
// any parameter check.
func TestDisabledRoutes(t *testing.T) {
	env := newTestEnv(t)
	const (
		journal  = `{"error":"event journal disabled (server built without a journal)"}`
		tracing  = `{"error":"tracing disabled (server built without a tracer)"}`
		profiles = `{"error":"continuous profiling disabled (server built without a profiler, as by xarserver -profile-interval 0)"}`
	)
	for path, want := range map[string]string{
		"/v1/rides/1/timeline": journal,
		"/v1/events?bogus=1":   journal,
		"/v1/traces":           tracing,
		"/v1/traces/0123456789abcdef0123456789abcdef": tracing,
		"/v1/metrics/history?bogus=1":                 `{"error":"metrics history disabled (server built without a recorder)"}`,
		"/v1/slo":                                     `{"error":"SLOs disabled (server built without an SLO engine)"}`,
		"/v1/quality":                                 `{"error":"match-quality accounting disabled (server built without a quality collector)"}`,
		"/v1/profiles":                                profiles,
		"/v1/profiles/1":                              profiles,
	} {
		rec := httptest.NewRecorder()
		env.handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound || rec.Body.String() != want+"\n" {
			t.Errorf("GET %s = %d %q, want 404 %q", path, rec.Code, rec.Body.String(), want+"\n")
		}
	}
}
