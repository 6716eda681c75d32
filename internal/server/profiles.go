// Continuous-profiling endpoints: the process profiler's rings served
// over HTTP (WithProfiler).
//
//	GET /v1/profiles       — list capture summaries (filter: pinned, since_s, limit)
//	GET /v1/profiles/{id}  — one capture's summary (?format=pprof&kind=cpu|heap|mutex|block exports a blob)
//
// The export is the exact gzipped protobuf the runtime produced, and
// `go tool pprof` fetches it itself:
//
//	go tool pprof -top 'http://host/v1/profiles/12?format=pprof&kind=cpu'
//
// What changed between two captures is the tool's diff:
// `go tool pprof -diff_base=<older> <newer>`. Both endpoints 400 on
// unknown query parameters, and the listing on a limit outside
// [1, maxListLimit] (absent: every capture) or a since_s that is
// negative or not finite — the contract of /v1/traces and /v1/events.
package server

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"xar/internal/profile"
)

// ProfileListResponse is the GET /v1/profiles body.
type ProfileListResponse struct {
	Profiles []profile.Summary `json:"profiles"`
}

// WithProfiler serves the continuous profiler's rings at /v1/profiles
// and /v1/profiles/{id}, adds profiles.json and the pinned captures'
// blobs to debug bundles, and, when the engine has memory accounting,
// registers the rings as the "profiles" component.
// The caller owns the profiler's lifecycle (Start, Close, AttachTo).
func WithProfiler(p *profile.Profiler) Option {
	return func(s *Server) { s.profiler = p }
}

const profilingDisabled = "continuous profiling disabled (server built without a profiler, as by xarserver -profile-interval 0)"

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if disabled(w, s.profiler == nil, profilingDisabled) {
		return
	}
	q := r.URL.Query()
	if !allowParams(w, q, "pinned", "since_s", "limit") {
		return
	}
	var f profile.ListFilter
	if v := q.Get("pinned"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad pinned %q", v)})
			return
		}
		f.PinnedOnly = b
	}
	if v := q.Get("since_s"); v != "" {
		sec, err := strconv.ParseFloat(v, 64)
		// ParseFloat accepts "NaN" and "±Inf": NaN would filter nothing
		// and +Inf everything, so reject both alongside negatives.
		if err != nil || math.IsNaN(sec) || math.IsInf(sec, 0) || sec < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "since_s must be a non-negative finite number of unix seconds"})
			return
		}
		f.Since = sec
	}
	var ok bool
	if f.Limit, ok = parseLimit(w, q); !ok { // 0: every capture in the rings
		return
	}
	writeJSON(w, http.StatusOK, ProfileListResponse{Profiles: s.profiler.List(f)})
}

func (s *Server) handleProfileByID(w http.ResponseWriter, r *http.Request) {
	if disabled(w, s.profiler == nil, profilingDisabled) {
		return
	}
	q := r.URL.Query()
	if !allowParams(w, q, "kind", "format") {
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid profile id"})
		return
	}
	c, ok := s.profiler.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no capture %d in the rings (evicted or never taken)", id)})
		return
	}
	switch q.Get("format") {
	case "", "json":
		if q.Has("kind") {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "kind selects a pprof blob; add format=pprof"})
			return
		}
		writeJSON(w, http.StatusOK, &c)
	case "pprof":
		kind := q.Get("kind")
		if kind == "" {
			kind = "cpu"
		}
		if !slices.Contains(profile.Kinds, kind) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad kind %q (want %s)", kind, strings.Join(profile.Kinds, ", "))})
			return
		}
		raw := c.Raw(kind)
		if raw == nil {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("capture %d has no %q blob (has %s)", id, kind, strings.Join(c.Kinds, ", "))})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("profile-%d-%s.pprof", id, kind)))
		_, _ = w.Write(raw)
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad format %q (want json or pprof)", q.Get("format"))})
	}
}
