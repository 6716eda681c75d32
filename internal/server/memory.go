package server

import (
	"net/http"
	"strconv"
)

// GET /v1/memory serves the engine's memory observability report: the
// per-component retained-byte breakdown from the last accounting sweep,
// the rides-per-GB frontier, runtime heap/GC statistics, and the top
// allocation sites with churn deltas. Available when the engine was
// built with Config.Memory; 404 otherwise, like the other optional
// observability surfaces.
//
// Parameters:
//
//	sweep   boolean; true forces a fresh synchronous sweep instead of
//	        returning the background worker's last report. Sweeps are
//	        cheap (component walks take per-component locks one at a
//	        time) but not free — dashboards polling this endpoint
//	        should rely on the background cadence.
func (s *Server) handleMemory(w http.ResponseWriter, r *http.Request) {
	if s.eng.MemComponents() == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "memory accounting disabled (engine built without a memsize registry)"})
		return
	}
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
	rep := s.eng.LastMemReport()
	if rep == nil || fresh {
		rep = s.eng.MemSweep()
	}
	writeJSON(w, http.StatusOK, rep)
}
