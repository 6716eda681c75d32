package server

import (
	"net/http"
	"strconv"
)

// GET /v1/memory serves the engine's memory observability report: the
// per-component retained-byte breakdown from the last accounting sweep,
// the rides-per-GB frontier and runtime heap/GC statistics. Every
// engine keeps its component registry, so the route always answers;
// before any sweep it runs the first one.
//
// Parameters:
//
//	sweep   boolean; true forces a fresh synchronous sweep instead of
//	        returning the last report. Sweeps are cheap (component
//	        walks take per-component locks one at a time) but not
//	        free — dashboards polling this endpoint should rely on
//	        xarserver's -mem-sweep cadence.
func (s *Server) handleMemory(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	// Unknown parameters are rejected, same contract as
	// /v1/metrics/history: a typo must not silently change semantics.
	if !allowParams(w, q, "sweep") {
		return
	}
	fresh := false
	if v := q.Get("sweep"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "sweep must be a boolean"})
			return
		}
		fresh = b
	}
	if fresh {
		writeJSON(w, http.StatusOK, s.eng.MemSweep())
		return
	}
	writeJSON(w, http.StatusOK, s.eng.LastMemReport())
}
