// Continuous-profiling endpoints: the process profiler's rings served
// over HTTP (WithProfiler).
//
//	GET /v1/profiles                      — list capture summaries (filter: pinned, since_s, limit)
//	GET /v1/profiles/{id}                 — one capture's flat tables (?kind= narrows, ?format=pprof exports raw)
//	GET /v1/profiles/diff?from=&to=&kind= — symbol-level delta between two captures
//
// The raw export is the exact gzipped protobuf the runtime produced,
// so `curl .../v1/profiles/12?format=pprof&kind=cpu | go tool pprof -`
// works. All three endpoints 400 on unknown query parameters, and the
// two listings on a limit outside [1, maxListLimit] (absent: every
// capture, or 30 diff rows) or a since_s that is negative or not
// finite — the contract of /v1/traces and /v1/events.
package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"xar/internal/profile"
)

// ProfileListResponse is the GET /v1/profiles body.
type ProfileListResponse struct {
	Profiles []profile.Summary `json:"profiles"`
}

// WithProfiler serves the continuous profiler's rings at /v1/profiles,
// /v1/profiles/{id} and /v1/profiles/diff, adds profiles.json and the
// pinned captures' raw blobs to debug bundles, and, when the engine has
// memory accounting, registers the rings as the "profiles" component.
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
		if kind := q.Get("kind"); kind != "" {
			f := c.Folded(kind)
			if f == nil {
				writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("capture %d has no %q profile (has %s)", id, kind, strings.Join(kindsOf(&c), ", "))})
				return
			}
			writeJSON(w, http.StatusOK, f)
			return
		}
		writeJSON(w, http.StatusOK, &c)
	case "pprof":
		// The raw export: kind names a runtime profile blob ("heap"
		// backs both heap_inuse and heap_alloc); default cpu.
		name := q.Get("kind")
		if name == "" {
			name = "cpu"
		}
		switch name {
		case profile.KindHeapInuse, profile.KindHeapAlloc:
			name = "heap"
		}
		raw := c.Raw(name)
		if raw == nil {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("capture %d has no raw %q blob (has %s)", id, name, strings.Join(c.RawNames(), ", "))})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("profile-%d-%s.pprof", id, name)))
		_, _ = w.Write(raw)
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad format %q (want json or pprof)", q.Get("format"))})
	}
}

func kindsOf(c *profile.Capture) []string {
	kinds := make([]string, 0, len(c.Profiles))
	for _, f := range c.Profiles {
		kinds = append(kinds, f.Kind)
	}
	return kinds
}

func (s *Server) handleProfileDiff(w http.ResponseWriter, r *http.Request) {
	if disabled(w, s.profiler == nil, profilingDisabled) {
		return
	}
	q := r.URL.Query()
	if !allowParams(w, q, "from", "to", "kind", "limit") {
		return
	}
	from, err1 := strconv.ParseUint(q.Get("from"), 10, 64)
	to, err2 := strconv.ParseUint(q.Get("to"), 10, 64)
	if err1 != nil || err2 != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "from and to must be capture ids (see GET /v1/profiles)"})
		return
	}
	kind := q.Get("kind")
	if kind == "" {
		kind = profile.KindCPU
	}
	limit, ok := parseLimit(w, q)
	if !ok {
		return
	}
	if limit == 0 {
		limit = 30
	}
	d, err := s.profiler.DiffCaptures(from, to, kind, limit)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, d)
}
