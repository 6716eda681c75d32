package core

import (
	"sync/atomic"
)

// Metrics is a snapshot of the engine's operation counters. All counters
// are cumulative since engine creation.
type Metrics struct {
	Searches       uint64
	SearchMatches  uint64 // total matches returned across searches
	RidesCreated   uint64
	Bookings       uint64
	BookingsFailed uint64
	Cancellations  uint64
	TrackCalls     uint64
	RidesCompleted uint64
	ShortestPaths  uint64 // single-pair searches run (create + book + cancel)
	// BookConflictRetries counts optimistic-booking commit attempts that
	// found the ride mutated (revision changed) between snapshot and
	// commit and had to retry. A high rate relative to Bookings signals
	// heavy contention on individual rides.
	BookConflictRetries uint64
	// CandidatesExamined counts ride candidates that reached the search
	// funnel (survived the posting-list window scan of step 1): the
	// quality collector's examined count. Zero unless Config.Quality is
	// set; when it is, this equals the sum of all xar_search_funnel_total
	// stages by construction.
	CandidatesExamined uint64
	// CreateLabels and BookLabels sum the nodes the path searches of
	// creates and of booking attempts labelled (ALTSearcher.LabelledNodes):
	// routing work in a unit no machine changes.
	CreateLabels uint64
	BookLabels   uint64
}

// metrics is the engine-internal atomic counter block.
type metrics struct {
	searches            atomic.Uint64
	searchMatches       atomic.Uint64
	ridesCreated        atomic.Uint64
	bookings            atomic.Uint64
	bookingsFailed      atomic.Uint64
	cancellations       atomic.Uint64
	trackCalls          atomic.Uint64
	ridesCompleted      atomic.Uint64
	shortestPaths       atomic.Uint64
	bookConflictRetries atomic.Uint64
	createLabels        atomic.Uint64
	bookLabels          atomic.Uint64
}

// Metrics returns a consistent-enough snapshot of the counters (each
// counter is read atomically; cross-counter skew is possible and fine
// for monitoring).
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Searches:       e.m.searches.Load(),
		SearchMatches:  e.m.searchMatches.Load(),
		RidesCreated:   e.m.ridesCreated.Load(),
		Bookings:       e.m.bookings.Load(),
		BookingsFailed: e.m.bookingsFailed.Load(),
		Cancellations:  e.m.cancellations.Load(),
		TrackCalls:     e.m.trackCalls.Load(),
		RidesCompleted: e.m.ridesCompleted.Load(),
		ShortestPaths:  e.m.shortestPaths.Load(),

		BookConflictRetries: e.m.bookConflictRetries.Load(),
		CandidatesExamined:  e.quality.Examined(),
		CreateLabels:        e.m.createLabels.Load(),
		BookLabels:          e.m.bookLabels.Load(),
	}
}

// LookToBookRatio reports the observed searches-per-booking — the
// quantity the paper's Figure 5b sweeps.
//
// The result is always finite and NaN-free: with zero bookings it
// returns 0, even when searches have happened (a "pure browsing" phase
// has no defined ratio yet; 0 keeps dashboards and the Figure 5b
// harness division-safe). Once Bookings > 0 the exact quotient is
// returned.
func (m Metrics) LookToBookRatio() float64 {
	if m.Bookings == 0 {
		return 0
	}
	return float64(m.Searches) / float64(m.Bookings)
}

// MatchRate is the average number of matches returned per search —
// SearchMatches/Searches, the engine-side quantity the Figure 5b
// harness reuses alongside LookToBookRatio. Zero searches yields 0
// (never NaN). Values above 1 mean searches return several options
// each.
func (m Metrics) MatchRate() float64 {
	if m.Searches == 0 {
		return 0
	}
	return float64(m.SearchMatches) / float64(m.Searches)
}
