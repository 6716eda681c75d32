package server

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"testing"

	"xar/internal/profile"
)

// profCaptures takes n on-demand captures through the traced env's
// profiler, with a burst of HTTP traffic before each so the
// deltas have content.
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
	// Newest first, every summary carrying its delta kinds.
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

// TestProfileByID exercises GET /v1/profiles/{id}: the full capture,
// kind narrowing, and the raw pprof export (which must gunzip — the
// blob `go tool pprof` loads).
func TestProfileByID(t *testing.T) {
	env := newTracedEnv(t)
	profCaptures(t, env, 2)

	var c profile.Capture
	if code := env.do(t, "GET", "/v1/profiles/2", nil, &c); code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}
	if c.ID != 2 || len(c.Profiles) == 0 {
		t.Fatalf("capture: id %d, %d folds", c.ID, len(c.Profiles))
	}

	var f profile.Folded
	if code := env.do(t, "GET", "/v1/profiles/2?kind="+profile.KindHeapAlloc, nil, &f); code != http.StatusOK {
		t.Fatalf("kind get: %d", code)
	}
	if f.Kind != profile.KindHeapAlloc {
		t.Fatalf("fold kind %q", f.Kind)
	}

	resp := env.doRaw(t, "GET", "/v1/profiles/2?format=pprof&kind="+profile.KindHeapInuse, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw export: %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("raw export is not the gzipped protobuf pprof expects: %v", err)
	}
	if _, err := io.ReadAll(gz); err != nil {
		t.Fatalf("raw export gunzip: %v", err)
	}

	// Misses and malformed requests.
	for path, want := range map[string]int{
		"/v1/profiles/9999":            http.StatusNotFound, // evicted / never taken
		"/v1/profiles/2?kind=bogus":    http.StatusNotFound,
		"/v1/profiles/2?format=potato": http.StatusBadRequest,
		"/v1/profiles/notanid":         http.StatusBadRequest,
	} {
		if code := env.do(t, "GET", path, nil, nil); code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}
}

// TestProfileDiff exercises GET /v1/profiles/diff: the symbol-level
// delta between two captures of a delta kind.
func TestProfileDiff(t *testing.T) {
	env := newTracedEnv(t)
	profCaptures(t, env, 2)

	var d profile.Diff
	path := fmt.Sprintf("/v1/profiles/diff?from=1&to=2&kind=%s", profile.KindHeapAlloc)
	if code := env.do(t, "GET", path, nil, &d); code != http.StatusOK {
		t.Fatalf("diff: %d", code)
	}
	if d.FromID != 1 || d.ToID != 2 || d.Kind != profile.KindHeapAlloc {
		t.Fatalf("diff header: %+v", d)
	}
	if len(d.Rows) == 0 {
		t.Fatal("diff between two loaded captures has no symbol rows")
	}
	for _, r := range d.Rows {
		if r.Func == "" {
			t.Fatalf("diff row without a symbol: %+v", r)
		}
	}

	if code := env.do(t, "GET", "/v1/profiles/diff?from=1&to=9999", nil, nil); code != http.StatusNotFound {
		t.Errorf("diff against a missing capture = %d, want 404", code)
	}
	if code := env.do(t, "GET", "/v1/profiles/diff?from=1", nil, nil); code != http.StatusBadRequest {
		t.Errorf("diff without to = %d, want 400", code)
	}
}

// TestProfilesQueryBounds holds both listings to the /v1/traces and
// /v1/events contract: since_s is a non-negative finite number and limit
// an integer in [1, maxListLimit]. NaN once filtered nothing, +Inf
// answered an empty 200, and no limit was capped.
func TestProfilesQueryBounds(t *testing.T) {
	env := newTracedEnv(t)
	profCaptures(t, env, 2)

	diff := "/v1/profiles/diff?from=1&to=2&kind=" + profile.KindHeapAlloc
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
		{diff + "&limit=-1", http.StatusBadRequest},
		{diff + "&limit=0", http.StatusBadRequest},
		{fmt.Sprintf("%s&limit=%d", diff, maxListLimit+1), http.StatusBadRequest},
		{fmt.Sprintf("%s&limit=%d", diff, maxListLimit), http.StatusOK},
	} {
		if code := env.do(t, "GET", tc.path, nil, nil); code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, code, tc.want)
		}
	}

	// With no limit, the list holds every capture and the diff 30 rows.
	var list ProfileListResponse
	if code := env.do(t, "GET", "/v1/profiles?since_s=0", nil, &list); code != http.StatusOK || len(list.Profiles) != 2 {
		t.Errorf("since_s=0: code %d, %d profiles, want 2", code, len(list.Profiles))
	}
	var d profile.Diff
	if code := env.do(t, "GET", diff, nil, &d); code != http.StatusOK || len(d.Rows) == 0 || len(d.Rows) > 30 {
		t.Errorf("diff without limit: code %d, %d rows, want 1–30", code, len(d.Rows))
	}
}

// TestProfilesUnknownParamsAnd404 pins the shared endpoint contracts:
// typo'd query parameters are 400s on all three routes, and a server
// built without a profiler serves 404 with a hint, parameter validation
// notwithstanding.
func TestProfilesUnknownParamsAnd404(t *testing.T) {
	env := newTracedEnv(t)
	profCaptures(t, env, 1)

	for _, path := range []string{
		"/v1/profiles?pined=true",
		"/v1/profiles/1?knd=cpu",
		"/v1/profiles/diff?from=1&to=1&kinds=cpu",
	} {
		if code := env.do(t, "GET", path, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, code)
		}
	}

	// Disabled-profiler 404 wins over parameter validation, matching
	// /v1/metrics/history's contract.
	bare := newTestEnv(t)
	for _, path := range []string{
		"/v1/profiles", "/v1/profiles/1", "/v1/profiles/diff?bogus=1",
	} {
		if code := bare.do(t, "GET", path, nil, nil); code != http.StatusNotFound {
			t.Errorf("profiler-less GET %s = %d, want 404", path, code)
		}
	}
}
