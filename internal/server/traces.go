package server

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"xar/internal/telemetry"
)

// maxTraceListLimit caps GET /v1/traces?limit=...; the ring store holds
// far fewer traces than this, so anything larger is a client bug.
const maxTraceListLimit = 10000

// Trace browsing endpoints. These serve the tracer's ring-buffer store —
// the same store the engine's spans land in — so a slow histogram bucket
// exemplar or an X-Xar-Trace-Id response header resolves to a full span
// tree with one curl.
//
//	GET /v1/traces?op=search&min_ms=5&status=error&limit=20
//	GET /v1/traces/{id}

// TracesResponse is the GET /v1/traces reply.
type TracesResponse struct {
	Traces []telemetry.TraceDoc `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "tracing disabled (server built without a tracer)"})
		return
	}
	q := r.URL.Query()
	// Unknown parameters are rejected rather than silently ignored: a
	// typo like "min_mss" otherwise returns an unfiltered listing that
	// looks like a successful filtered one.
	if !allowParams(w, q, "op", "min_ms", "status", "limit") {
		return
	}
	f := telemetry.TraceFilter{Op: q.Get("op")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		// ParseFloat accepts "NaN" and "±Inf"; both would turn the filter
		// into nonsense (NaN comparisons are all false), so reject them
		// alongside negatives.
		if err != nil || math.IsNaN(ms) || math.IsInf(ms, 0) || ms < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "min_ms must be a non-negative finite number"})
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	switch st := q.Get("status"); st {
	case "", "ok", "error":
		f.Status = st
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: `status must be "ok" or "error"`})
		return
	}
	var ok bool
	if f.Limit, ok = parseLimit(w, q, maxTraceListLimit); !ok {
		return
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: telemetry.Docs(s.tracer.Store().List(f))})
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "tracing disabled (server built without a tracer)"})
		return
	}
	id, ok := telemetry.ParseTraceID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "trace id must be 32 hex digits"})
		return
	}
	td, ok := s.tracer.Store().Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "trace not found (evicted from the ring, or never sampled)"})
		return
	}
	writeJSON(w, http.StatusOK, td.Doc())
}
