package main

import (
	"fmt"

	"xar/internal/core"
	"xar/internal/index"
	"xar/internal/roadnet"
)

// Operation kinds, in the order the latency buffers are indexed.
const (
	kSearch = iota
	kBook
	kCreate
	kTrack
	kCancel
	numKinds
)

var kindNames = [numKinds]string{"search", "book", "create", "track", "cancel"}

// sample is what one instance — one set-up followed by one fixed-work
// round — measured. Run-level metrics are medians over a run's samples.
type sample struct {
	setupS float64
	wallS  float64 // the measured phase
	units  int     // fixed work units of the measured phase

	lat [numKinds][]int64 // per-call latency, ns

	searches int // recorded searches
	matched  int // recorded searches that returned ≥ 1 match
	matches  int // matches returned over the recorded searches
	served   int // replay_city: trips served by an existing ride
	stale    int // book calls the engine rejected
	retries  uint64

	attempted, failed int

	indexBytesPerRide float64
	rssPeakMB         float64

	mem   memDelta // the Go runtime over the measured phase
	cpuS  float64  // this process's user+system CPU over the measured phase
	steal float64  // the host's steal share while the instance ran

	// Traced pass only: engine counter deltas around single calls.
	spCreate, spBook uint64
	candidates       uint64

	violations []string
}

func newSample(capacity [numKinds]int) *sample {
	s := &sample{}
	for k, c := range capacity {
		s.lat[k] = make([]int64, 0, c)
	}
	return s
}

func (s *sample) violate(format string, args ...any) {
	if len(s.violations) < 8 {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

// absorbFailures keeps what an unrecorded phase (seeding, warm-up) got
// wrong and nothing else of it.
func (s *sample) absorbFailures(other *sample) {
	s.attempted += other.attempted
	s.failed += other.failed
	s.violations = append(s.violations, other.violations...)
}

// bookingRef is what cancelling a booking needs.
type bookingRef struct {
	ride            index.RideID
	pickup, dropoff roadnet.NodeID
}

// caller times calls into a layer on behalf of one goroutine: every call
// lands in the sample and, in the traced pass, as a span under the
// current work unit's root.
type caller struct {
	s   *sample
	rec *recorder // nil in the untraced pass

	names       [numKinds]string
	trace, root int32 // the current work unit
}

// setPhase prefixes the span names: "core." (or "client.") in the
// measured phase, "setup." while seeding and "tail." in a booking tail,
// so busy times and shares of measured wall count the measured phase
// alone.
func (c *caller) setPhase(prefix string) {
	for k, name := range kindNames {
		c.names[k] = prefix + name
	}
}

// begin opens work unit i; end closes it. Both are no-ops untraced.
func (c *caller) begin(i int) int64 {
	if c.rec == nil {
		return 0
	}
	c.trace, c.root = int32(i), c.rec.reserve()
	return clock()
}

func (c *caller) end(start int64) {
	if c.rec != nil {
		c.rec.fill(c.root, c.trace, 0, "unit", start, clock(), 0)
	}
}

// record books one finished call. failure is a non-domain error (nil
// for a success or a domain rejection).
func (c *caller) record(kind int, span int32, t0, t1 int64, n int, failure error) {
	c.s.attempted++
	c.s.lat[kind] = append(c.s.lat[kind], t1-t0)
	if c.rec != nil {
		if span == 0 {
			span = c.rec.reserve()
		}
		c.rec.fill(span, c.trace, c.root, c.names[kind], t0, t1, n)
	}
	if failure != nil {
		c.s.failed++
		c.s.violate("%s: %v", kindNames[kind], failure)
	}
}

func (c *caller) recordSearch(matches int) {
	c.s.searches++
	c.s.matches += matches
	if matches > 0 {
		c.s.matched++
	}
}

// engineOps issues the engine's public calls for the in-process
// workloads and checks every booking against the paper's guarantees.
type engineOps struct {
	caller
	eng  *core.Engine
	eps4 float64 // Theorem 6's additive bound, 4ε
}

func newEngineOps(eng *core.Engine, rec *recorder, s *sample) *engineOps {
	o := &engineOps{caller: caller{s: s, rec: rec}, eng: eng, eps4: 4 * eng.Disc().Epsilon()}
	o.setPhase("core.")
	return o
}

// done records a finished engine call and reports whether it succeeded;
// a domain rejection is neither a success nor a failure.
func (o *engineOps) done(kind int, t0, t1 int64, n int, err error) bool {
	failure := err
	if err != nil && domainRejection(err) {
		failure = nil
	}
	o.record(kind, 0, t0, t1, n, failure)
	return err == nil
}

// shortestPaths reads the engine's cumulative shortest-path counter in
// the traced pass, whose deltas around single calls attribute the
// router's work to creates and books.
func (o *engineOps) shortestPaths() uint64 {
	if o.rec == nil {
		return 0
	}
	return o.eng.Metrics().ShortestPaths
}

// search is a recorded search: it feeds search latency and match rate.
func (o *engineOps) search(req core.Request, k int) []core.Match {
	t0 := clock()
	ms, err := o.eng.SearchK(req, k)
	t1 := clock()
	o.done(kSearch, t0, t1, len(ms), err)
	o.recordSearch(len(ms))
	return ms
}

// lookup is an unrecorded search: a booking tail needs a fresh match to
// book, and the searches it makes are not part of the search sample.
func (o *engineOps) lookup(req core.Request) []core.Match {
	ms, err := o.eng.SearchK(req, 0)
	o.s.attempted++
	if err != nil && !domainRejection(err) {
		o.s.failed++
		o.s.violate("search: %v", err)
	}
	return ms
}

func (o *engineOps) book(m core.Match, req core.Request) (core.Booking, bool) {
	sp0 := o.shortestPaths()
	t0 := clock()
	bk, err := o.eng.Book(m, req)
	t1 := clock()
	o.s.spBook += o.shortestPaths() - sp0
	if !o.done(kBook, t0, t1, 0, err) {
		o.s.stale++
		return bk, false
	}
	checkBooking(o.s, int64(bk.Ride), bk.ShortestPathRuns, bk.ApproxError(), o.eps4)
	return bk, true
}

// checkBooking holds a confirmed booking to the paper's guarantees: at
// most four shortest paths (§VIII-B) and an additive approximation error
// of at most 4ε (Theorem 6).
func checkBooking(s *sample, ride int64, spRuns int, approxErr, eps4 float64) {
	if spRuns > 4 {
		s.violate("booking on ride %d ran %d shortest paths (> 4)", ride, spRuns)
	}
	if approxErr > eps4+1e-6 {
		s.violate("booking on ride %d: approximation error %.1f m > 4ε = %.1f m", ride, approxErr, eps4)
	}
}

func (o *engineOps) create(offer core.RideOffer) (index.RideID, bool) {
	sp0 := o.shortestPaths()
	t0 := clock()
	id, err := o.eng.CreateRide(offer)
	t1 := clock()
	o.s.spCreate += o.shortestPaths() - sp0
	return id, o.done(kCreate, t0, t1, 0, err)
}

func (o *engineOps) trackAll(now float64) {
	t0 := clock()
	n, err := o.eng.TrackAll(now)
	o.done(kTrack, t0, clock(), n, err)
}

func (o *engineOps) track(id index.RideID, now float64) (arrived, ok bool) {
	t0 := clock()
	arrived, err := o.eng.Track(id, now)
	return arrived, o.done(kTrack, t0, clock(), 0, err)
}

func (o *engineOps) cancel(b bookingRef) bool {
	t0 := clock()
	err := o.eng.CancelBooking(b.ride, b.pickup, b.dropoff)
	return o.done(kCancel, t0, clock(), 0, err)
}

// finishEngine runs the check every in-process workload ends with.
func finishEngine(eng *core.Engine, s *sample) {
	if err := eng.Index().CheckInvariants(); err != nil {
		s.violate("index invariants: %v", err)
	}
	s.retries = eng.Metrics().BookConflictRetries
}
