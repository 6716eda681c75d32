package server

import (
	"net/http"

	"xar/internal/quality"
)

// WithQuality serves the match-quality collector's state at
// GET /v1/quality and includes quality.json in debug bundles. Pass the
// same collector the engine was configured with (core.Config.Quality)
// so the endpoint reflects live funnel and shadow-matcher accounting.
func WithQuality(qc *quality.Collector) Option {
	return func(s *Server) { s.quality = qc }
}

// QualityResponse is the GET /v1/quality body: the rejection funnel,
// the approximation-gap distributions, and the shadow counterfactual
// matcher's attribution and regret statistics, plus the engine-level
// match rate for context.
type QualityResponse struct {
	quality.Snapshot
	// MatchRate is the cumulative average of matches per search
	// (engine-wide, not only quality-tracked searches).
	MatchRate float64 `json:"match_rate"`
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if s.quality == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "match-quality accounting disabled (server built without a quality collector)"})
		return
	}
	// No parameters today; reject any so a future filtered form cannot
	// be shadowed by ignore-everything behavior (same contract as
	// /v1/slo and /v1/metrics/history).
	if !allowParams(w, r.URL.Query()) {
		return
	}
	writeJSON(w, http.StatusOK, s.qualityResponse())
}

func (s *Server) qualityResponse() QualityResponse {
	return QualityResponse{
		Snapshot:  s.quality.Snapshot(),
		MatchRate: s.eng.Metrics().MatchRate(),
	}
}
