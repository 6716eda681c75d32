// Package sim implements the paper's simulation framework (§X-A2): a
// ride-share replay over a trip stream — for each request, search the
// existing rides; if matches exist, book the one with the least walking;
// otherwise create a new ride from the request — plus per-operation
// latency accounting, the look-to-book experiment, and adapters that
// drive either the XAR engine or the T-Share baseline through one
// interface.
package sim

import (
	"fmt"
	"time"

	"xar/internal/audit"
	"xar/internal/geo"
	"xar/internal/stats"
	"xar/internal/workload"
)

// Offer mirrors a ride offer at the simulation level.
type Offer struct {
	Source, Dest geo.Point
	Departure    float64
	Seats        int
	DetourLimit  float64
}

// Request mirrors a ride request at the simulation level.
type Request struct {
	Source, Dest     geo.Point
	Earliest, Latest float64
	WalkLimit        float64
}

// Candidate is one match returned by a System's search. Payload carries
// the system-specific match object back into Book.
type Candidate struct {
	Key     int64
	Walk    float64
	Payload interface{}
}

// BookResult reports a successful booking's quality metrics.
type BookResult struct {
	Detour      float64
	ApproxError float64 // XAR only; 0 for systems without the guarantee
	Walk        float64
}

// System is the interface both ride-share engines expose to the replay.
type System interface {
	Name() string
	Create(Offer) (int64, error)
	Search(Request, int) ([]Candidate, error)
	Book(Candidate, Request) (BookResult, error)
	// Advance moves time forward (tracking); returns completed rides.
	Advance(now float64) int
	// ActiveRides reports the current fleet size.
	ActiveRides() int
}

// Seats is every created ride's capacity, a taxi's as the paper counts
// it.
const Seats = 4

// TrackInterval runs tracking whenever simulated time advances by this
// many seconds.
const TrackInterval = 120

// Config tunes a replay run.
type Config struct {
	// K caps the matches requested per search (0 = all).
	K int
	// WalkLimit is each requester's walking threshold (meters).
	WalkLimit float64
	// WindowSlack is each request's departure-window length (seconds).
	WindowSlack float64
	// DetourLimit bounds created rides' detours (meters).
	DetourLimit float64
	// LookToBook performs this many searches per request before acting
	// (≥1); the paper's Figure 5b sweeps it.
	LookToBook int
	// Auditor, when non-nil, runs a synchronous invariant sweep whenever
	// the replay's simulated clock advances by AuditInterval seconds. Do
	// not Start() the auditor's wall-clock loop as well; a replay
	// outruns wall time.
	Auditor *audit.Auditor
	// AuditInterval is the simulated-seconds cadence for Auditor
	// (0 → 300).
	AuditInterval float64
}

// DefaultConfig returns the paper's simulation settings.
func DefaultConfig() Config {
	return Config{
		WalkLimit:   1000,
		WindowSlack: 900,
		DetourLimit: 2000,
		LookToBook:  1,
	}
}

// Result accumulates a replay's metrics.
type Result struct {
	SystemName string

	SearchTimes stats.Sample // milliseconds
	CreateTimes stats.Sample
	BookTimes   stats.Sample

	Requests     int
	Matched      int // requests served by an existing ride
	Created      int // rides created (cars on the road)
	FailedBooks  int // match went stale between search and book
	NotServable  int
	TotalMatches int // matches returned across all searches

	ApproxErrors stats.Sample // meters; XAR detour-approximation errors
	Walks        stats.Sample // meters walked by matched requesters
	Detours      stats.Sample // meters of detour per booking
}

// MatchRate is the fraction of requests served by sharing.
func (r *Result) MatchRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Matched) / float64(r.Requests)
}

// Run replays trips through sys per the paper's §X-A2 protocol.
func Run(sys System, trips []workload.Trip, cfg Config) (*Result, error) {
	if cfg.LookToBook < 1 {
		cfg.LookToBook = 1
	}
	res := &Result{SystemName: sys.Name()}
	lastTrack := -1.0
	lastAudit := -1.0
	auditEvery := 0.0
	if cfg.Auditor != nil {
		auditEvery = cfg.AuditInterval
		if auditEvery <= 0 {
			auditEvery = 300
		}
	}
	for _, trip := range trips {
		now := trip.RequestTime
		if lastTrack < 0 || now-lastTrack >= TrackInterval {
			sys.Advance(now)
			lastTrack = now
		}
		if auditEvery > 0 && (lastAudit < 0 || now-lastAudit >= auditEvery) {
			cfg.Auditor.Audit()
			lastAudit = now
		}
		res.Requests++

		req := Request{
			Source:    trip.Pickup,
			Dest:      trip.Dropoff,
			Earliest:  now,
			Latest:    now + cfg.WindowSlack,
			WalkLimit: cfg.WalkLimit,
		}

		// The look-to-book ratio: r searches hit the system per booking
		// decision (a trip planner exploring options).
		var cands []Candidate
		var serr error
		for look := 0; look < cfg.LookToBook; look++ {
			start := time.Now()
			cands, serr = sys.Search(req, cfg.K)
			res.SearchTimes.AddDuration(time.Since(start))
		}
		if serr != nil {
			if isNotServable(serr) {
				res.NotServable++
				continue
			}
			return res, fmt.Errorf("sim: search failed: %w", serr)
		}
		res.TotalMatches += len(cands)

		booked := false
		for _, c := range cands { // least-walk first (systems sort)
			start := time.Now()
			br, berr := sys.Book(c, req)
			res.BookTimes.AddDuration(time.Since(start))
			if berr != nil {
				res.FailedBooks++
				continue
			}
			res.Matched++
			res.ApproxErrors.Add(br.ApproxError)
			res.Walks.Add(br.Walk)
			res.Detours.Add(br.Detour)
			booked = true
			break
		}
		if booked {
			continue
		}

		offer := Offer{
			Source:      trip.Pickup,
			Dest:        trip.Dropoff,
			Departure:   now + cfg.WindowSlack/2,
			Seats:       Seats,
			DetourLimit: cfg.DetourLimit,
		}
		start := time.Now()
		_, cerr := sys.Create(offer)
		res.CreateTimes.AddDuration(time.Since(start))
		if cerr != nil {
			if isNotServable(cerr) {
				res.NotServable++
				continue
			}
			// Unroutable offers (snapped to identical nodes, …) are
			// skipped, matching the paper's data cleaning.
			res.NotServable++
			continue
		}
		res.Created++
	}
	return res, nil
}

// notServable lets adapters mark requests the discretization cannot serve
// without aborting the replay.
type notServableError struct{ err error }

func (e notServableError) Error() string { return e.err.Error() }
func (e notServableError) Unwrap() error { return e.err }

// MarkNotServable wraps an error so Run counts it instead of failing.
func MarkNotServable(err error) error { return notServableError{err: err} }

func isNotServable(err error) bool {
	_, ok := err.(notServableError)
	return ok
}
