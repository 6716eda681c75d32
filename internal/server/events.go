package server

import (
	"fmt"
	"net/http"
	"strconv"

	"xar/internal/audit"
	"xar/internal/journal"
)

// maxEventListLimit caps GET /v1/events?limit=... and
// GET /v1/rides/{id}/timeline?limit=... — same cap and contract as
// /v1/traces.
const maxEventListLimit = 10000

// WithJournal serves the engine's ride-lifecycle event journal at
// GET /v1/rides/{id}/timeline and GET /v1/events. Pass the same journal
// the engine was configured with (core.Config.Journal).
func WithJournal(j *journal.Journal) Option {
	return func(s *Server) { s.journal = j }
}

// WithAuditor folds the invariant auditor into /v1/healthz (any
// violation pages the health status) and adds audit.json plus the
// violating rides' timelines to debug bundles. The caller owns the
// auditor's background lifecycle (Start/Stop).
func WithAuditor(a *audit.Auditor) Option {
	return func(s *Server) { s.auditor = a }
}

// TimelineResponse is the GET /v1/rides/{id}/timeline body.
type TimelineResponse struct {
	RideID int64           `json:"ride_id"`
	Events []journal.Event `json:"events"`
}

// EventsResponse is the GET /v1/events body. LastSeq is the journal's
// newest sequence number — pass it back as ?since= to poll for events
// recorded after this response.
type EventsResponse struct {
	Events  []journal.Event `json:"events"`
	LastSeq uint64          `json:"last_seq"`
}

// handleRideTimeline serves one ride's retained event timeline.
// Timelines outlive the ride: a completed ride's events remain readable
// until the journal evicts them for space.
func (s *Server) handleRideTimeline(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "event journal disabled (server built without a journal)"})
		return
	}
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	if !allowParams(w, q, "limit") {
		return
	}
	limit, ok := parseLimit(w, q, maxEventListLimit) // 0: all retained events (per-ride rings are small)
	if !ok {
		return
	}
	evs := s.journal.Timeline(id)
	if evs == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no events recorded for this ride"})
		return
	}
	if limit > 0 && len(evs) > limit {
		evs = evs[len(evs)-limit:] // keep the most recent
	}
	writeJSON(w, http.StatusOK, TimelineResponse{RideID: id, Events: evs})
}

// handleEvents serves the global event tail with type/since/limit
// filters, ascending by sequence number.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "event journal disabled (server built without a journal)"})
		return
	}
	q := r.URL.Query()
	if !allowParams(w, q, "type", "since", "limit") {
		return
	}
	var f journal.TailFilter
	if v := q.Get("type"); v != "" {
		t := journal.EventType(v)
		if !journal.KnownType(t) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown event type %q", v)})
			return
		}
		f.Type = t
	}
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "since must be a non-negative integer sequence number"})
			return
		}
		f.SinceSeq = n
	}
	var ok bool
	if f.Limit, ok = parseLimit(w, q, maxEventListLimit); !ok {
		return
	}
	writeJSON(w, http.StatusOK, EventsResponse{
		Events:  s.journal.Tail(f),
		LastSeq: s.journal.LastSeq(),
	})
}

// healthStatus is the status string /v1/healthz reports: the worst SLO
// state, escalated to "page" whenever the auditor has ever found an
// invariant violation — a correctness breach outranks any latency state.
func (s *Server) healthStatus() string {
	if s.auditor != nil && s.auditor.TotalViolations() > 0 {
		return "page"
	}
	return s.sloStatus()
}
