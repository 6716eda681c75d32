package server

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"xar/internal/profile"
)

// profCaptures takes n on-demand captures through the traced env's
// profiler, with a burst of HTTP traffic before each so the
// blobs have content.
func profCaptures(t testing.TB, env *tracedEnv, n int) {
	t.Helper()
	body := env.searchBody(t)
	for i := 0; i < n; i++ {
		for j := 0; j < 50; j++ {
			resp := env.doRaw(t, "POST", "/v1/search", body, nil)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if c := env.prof.CaptureNow(); c == nil {
			t.Fatal("CaptureNow returned nil")
		}
	}
}

// TestProfilesList exercises GET /v1/profiles: summaries for every
// capture in the rings, the pinned filter, and the limit filter.
func TestProfilesList(t *testing.T) {
	env := newTracedEnv(t)
	profCaptures(t, env, 3)

	var list ProfileListResponse
	if code := env.do(t, "GET", "/v1/profiles", nil, &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list.Profiles) != 3 {
		t.Fatalf("listed %d captures, want 3", len(list.Profiles))
	}
	// Newest first, every summary naming the blobs its capture holds.
	if list.Profiles[0].ID <= list.Profiles[1].ID {
		t.Errorf("list not newest-first: %d then %d", list.Profiles[0].ID, list.Profiles[1].ID)
	}
	if len(list.Profiles[0].Kinds) == 0 {
		t.Errorf("summary %d carries no kinds", list.Profiles[0].ID)
	}

	if code := env.do(t, "GET", "/v1/profiles?limit=1", nil, &list); code != http.StatusOK || len(list.Profiles) != 1 {
		t.Fatalf("limit=1: code %d, %d profiles", code, len(list.Profiles))
	}

	// Nothing pinned yet; pin the newest and the filter must find it.
	if code := env.do(t, "GET", "/v1/profiles?pinned=true", nil, &list); code != http.StatusOK || len(list.Profiles) != 0 {
		t.Fatalf("pinned pre-pin: code %d, %d profiles", code, len(list.Profiles))
	}
	env.prof.PinLatest("endpoint test")
	if code := env.do(t, "GET", "/v1/profiles?pinned=true", nil, &list); code != http.StatusOK || len(list.Profiles) != 1 {
		t.Fatalf("pinned post-pin: code %d, %d profiles", code, len(list.Profiles))
	}
	if !list.Profiles[0].Pinned || list.Profiles[0].PinReason != "endpoint test" {
		t.Errorf("pinned summary: %+v", list.Profiles[0])
	}
}

// TestProfileByID exercises GET /v1/profiles/{id}: the capture's
// summary, and the pprof export of each kind (which must gunzip — the
// blob `go tool pprof` loads).
func TestProfileByID(t *testing.T) {
	env := newTracedEnv(t)
	profCaptures(t, env, 2)

	var c profile.Capture
	if code := env.do(t, "GET", "/v1/profiles/2", nil, &c); code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}
	if got := strings.Join(c.Kinds, ","); c.ID != 2 || got != "heap,mutex,block" {
		t.Fatalf("capture: id %d, kinds %s, want 2 and heap,mutex,block (no CPU window)", c.ID, got)
	}
	if c.NumGoroutine <= 0 || len(c.Goroutines) == 0 {
		t.Errorf("summary carries no goroutine counts: n=%d by state %v", c.NumGoroutine, c.Goroutines)
	}

	for _, kind := range c.Kinds {
		resp := env.doRaw(t, "GET", "/v1/profiles/2?format=pprof&kind="+kind, "", nil)
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s export: %d %v", kind, resp.StatusCode, err)
		}
		gz, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s export is not the gzipped protobuf pprof expects: %v", kind, err)
		}
		if _, err := io.ReadAll(gz); err != nil {
			t.Fatalf("%s export gunzip: %v", kind, err)
		}
	}

	// Misses and malformed requests. heap_inuse and heap_alloc are not
	// kinds: the heap blob carries both sample types.
	for path, want := range map[string]int{
		"/v1/profiles/9999":                           http.StatusNotFound, // evicted / never taken
		"/v1/profiles/2?format=pprof":                 http.StatusNotFound, // cpu, absent with no window
		"/v1/profiles/2?format=pprof&kind=bogus":      http.StatusBadRequest,
		"/v1/profiles/2?format=pprof&kind=heap_inuse": http.StatusBadRequest,
		"/v1/profiles/2?format=pprof&kind=heap_alloc": http.StatusBadRequest,
		"/v1/profiles/2?kind=heap":                    http.StatusBadRequest, // kind without format=pprof
		"/v1/profiles/2?format=potato":                http.StatusBadRequest,
		"/v1/profiles/notanid":                        http.StatusBadRequest,
		"/v1/profiles/diff":                           http.StatusBadRequest, // no diff route: "diff" is not an id
	} {
		if code := env.do(t, "GET", path, nil, nil); code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}
	resp := env.doRaw(t, "GET", "/v1/profiles/2?format=pprof&kind=heap_alloc", "", nil)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "cpu, heap, mutex, block") {
		t.Errorf("bad-kind answer does not name the valid kinds: %s", body)
	}
}

// TestProfilesQueryBounds holds the listing to the /v1/traces and
// /v1/events contract: since_s is a non-negative finite number and limit
// an integer in [1, maxListLimit]. NaN once filtered nothing, +Inf
// answered an empty 200, and no limit was capped.
func TestProfilesQueryBounds(t *testing.T) {
	env := newTracedEnv(t)
	profCaptures(t, env, 2)

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/profiles?since_s=NaN", http.StatusBadRequest},
		{"/v1/profiles?since_s=Inf", http.StatusBadRequest},
		{"/v1/profiles?since_s=-Inf", http.StatusBadRequest},
		{"/v1/profiles?since_s=-1", http.StatusBadRequest},
		{"/v1/profiles?since_s=0", http.StatusOK},
		{"/v1/profiles?limit=-1", http.StatusBadRequest},
		{"/v1/profiles?limit=0", http.StatusBadRequest},
		{"/v1/profiles?limit=NaN", http.StatusBadRequest},
		{fmt.Sprintf("/v1/profiles?limit=%d", maxListLimit+1), http.StatusBadRequest},
		{fmt.Sprintf("/v1/profiles?limit=%d", maxListLimit), http.StatusOK},
	} {
		if code := env.do(t, "GET", tc.path, nil, nil); code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, code, tc.want)
		}
	}

	// With no limit, the list holds every capture.
	var list ProfileListResponse
	if code := env.do(t, "GET", "/v1/profiles?since_s=0", nil, &list); code != http.StatusOK || len(list.Profiles) != 2 {
		t.Errorf("since_s=0: code %d, %d profiles, want 2", code, len(list.Profiles))
	}
}

// TestProfilesUnknownParamsAnd404 pins the shared endpoint contracts:
// typo'd query parameters are 400s on both routes, and a server
// built without a profiler serves 404 with a hint, parameter validation
// notwithstanding.
func TestProfilesUnknownParamsAnd404(t *testing.T) {
	env := newTracedEnv(t)
	profCaptures(t, env, 1)

	for _, path := range []string{
		"/v1/profiles?pined=true",
		"/v1/profiles/1?knd=cpu",
	} {
		if code := env.do(t, "GET", path, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, code)
		}
	}

	// Disabled-profiler 404 wins over parameter validation, matching
	// /v1/metrics/history's contract.
	bare := newTestEnv(t)
	for _, path := range []string{
		"/v1/profiles", "/v1/profiles/1",
	} {
		if code := bare.do(t, "GET", path, nil, nil); code != http.StatusNotFound {
			t.Errorf("profiler-less GET %s = %d, want 404", path, code)
		}
	}
}
