package core

import (
	"context"
	"log/slog"
	"time"

	"xar/internal/index"
	"xar/internal/telemetry"
)

// Operation names used in op latency histograms and the slow-op log.
const (
	opSearch   = "search"
	opCreate   = "create"
	opBook     = "book"
	opCancel   = "cancel"
	opTrack    = "track"
	opComplete = "complete"
)

// Search stage names (§VII decomposition; see DESIGN.md §Observability).
const (
	stageSideLookup  = "side_lookup"    // walkableSide on both endpoints
	stageCandidate   = "candidate_scan" // steps 1+2: potential-ride pulls + intersection
	stageFinalCheck  = "final_check"    // whole per-ride validation loop + sort
	stageDetourCheck = "detour_check"   // bestSupportPair time summed over the search
)

// DefaultSearchSampleRate is the default 1-in-N sampling rate for search
// latency tracing. Searches are sub-microsecond on a warm index, so
// timing every one (≈9 clock reads for the stage breakdown) would cost
// tens of percent; sampling keeps the hot-path overhead under 5% while
// the histograms still converge on the true distribution. All other
// engine operations (create/book/cancel/track/complete) run at µs–ms
// scale and are always recorded.
const DefaultSearchSampleRate = 32

// engineTelemetry bundles the engine's instruments. A nil
// *engineTelemetry disables instrumentation entirely: the hot paths
// guard every time.Now() behind a nil check, so a telemetry-free engine
// pays one predictable branch per operation.
type engineTelemetry struct {
	ops    map[string]*telemetry.Histogram
	stages map[string]*telemetry.Histogram

	// errs counts failed operations per op (xar_op_errors_total) — the
	// numerator of the error-rate SLO, whose denominator is the matching
	// xar_op_duration_seconds count.
	errs map[string]*telemetry.Counter

	// bookConflicts counts optimistic-booking commit retries
	// (xar_book_conflict_retries_total) — the Prometheus twin of
	// Metrics.BookConflictRetries.
	bookConflicts *telemetry.Counter

	// Search sampling: a search is fully timed iff its sequence number
	// (the engine's own searches counter) & sampleMask == 0, so an
	// unsampled search pays one mask test and a branch.
	sampleMask uint32

	// tracer mints request-scoped span trees (Config.Tracer). Nil when
	// only aggregate metrics are wanted; the engine then still continues
	// traces begun upstream (an HTTP root span in the context).
	tracer *telemetry.Tracer

	slowThresh time.Duration
	slowLog    *slog.Logger
}

// newEngineTelemetry builds the instrument set. reg may be nil when only
// slow-op logging is wanted; histograms then record into a private,
// unexposed registry (cost is identical, output is simply not scraped).
// sampleRate is the 1-in-N search sampling rate, rounded up to a power
// of two; 0 means DefaultSearchSampleRate, 1 times every search.
func newEngineTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer, sampleRate int, slowThresh time.Duration, slowLog *slog.Logger) *engineTelemetry {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if sampleRate <= 0 {
		sampleRate = DefaultSearchSampleRate
	}
	t := &engineTelemetry{
		ops:        make(map[string]*telemetry.Histogram, 6),
		stages:     make(map[string]*telemetry.Histogram, 5),
		errs:       make(map[string]*telemetry.Counter, 6),
		sampleMask: telemetry.SampleMask(sampleRate),
		tracer:     tracer,
		slowThresh: slowThresh,
		slowLog:    slowLog,
	}
	for _, op := range []string{opSearch, opCreate, opBook, opCancel, opTrack, opComplete} {
		t.ops[op] = telemetry.OpDuration(reg, op)
		t.errs[op] = reg.Counter("xar_op_errors_total",
			"Engine operations that returned an error, by operation.",
			telemetry.L("op", op))
	}
	for _, st := range []string{stageSideLookup, stageCandidate, stageFinalCheck, stageDetourCheck} {
		t.stages[st] = telemetry.SearchStage(reg, st)
	}
	t.bookConflicts = reg.Counter("xar_book_conflict_retries_total",
		"Optimistic booking commits retried because the ride mutated between snapshot and commit.", nil)
	if slowThresh > 0 && t.slowLog == nil {
		t.slowLog = slog.Default()
	}
	return t
}

// registerIndexGauges exposes the index's occupancy: how many rides are
// registered (xar_index_rides) and how many of those are full
// (xar_index_full_rides: in no posting list, so no search examines them
// and no funnel stage counts them). Both are registered eagerly — a
// freshly started server reports them — and one scrape hook fills both
// from one load of the index's Occupancy word before any exposition
// render, so their ratio is of one instant. The hook holds that word,
// not the index: a registry that outlives the engine keeps no rides
// alive.
func registerIndexGauges(reg *telemetry.Registry, occ *index.Occupancy) {
	rides := reg.Gauge("xar_index_rides", "Rides registered in the index.", nil)
	full := reg.Gauge("xar_index_full_rides", "Registered rides with no free seat (listed again when a cancellation frees one).", nil)
	refresh := func() {
		n, f := occ.Load()
		rides.Set(float64(n))
		full.Set(float64(f))
	}
	refresh()
	reg.OnScrape(refresh)
}

// startOp opens the span for one engine operation: through the
// configured tracer when there is one (continuing an upstream trace or
// head-sampling a new root), else as a plain child of whatever trace the
// context already carries. Nil-receiver-safe, so call sites need no
// telemetry guard; the returned span is nil when nothing records.
func (t *engineTelemetry) startOp(ctx context.Context, op string) (context.Context, *telemetry.Span) {
	if t == nil || t.tracer == nil {
		return telemetry.ChildSpan(ctx, op)
	}
	return t.tracer.StartSpan(ctx, op)
}

// beginOp is startOp plus the operation's clock for the always-recorded
// operations (create, book, cancel, track); `defer endOp` closes both. An
// engine that neither measures nor traces reads no clock in either half.
func (t *engineTelemetry) beginOp(ctx context.Context, op string) (context.Context, *telemetry.Span, time.Time) {
	ctx, span := t.startOp(ctx, op)
	if t == nil && span == nil {
		return ctx, nil, time.Time{}
	}
	return ctx, span, time.Now()
}

// endOp records the operation's outcome and duration and ends its span,
// on one clock read. err points at the caller's named result, so a
// deferred endOp sees what the operation returned.
func (t *engineTelemetry) endOp(op string, start time.Time, span *telemetry.Span, err *error) {
	if t == nil && span == nil {
		return
	}
	now := time.Now()
	span.SetError(*err)
	// Observe before End: sealing recycles the trace record.
	t.observeOp(op, now.Sub(start), span, *err)
	span.EndAt(now)
}

// observeOp records one whole-operation duration, counts err into the
// op's error counter, and emits the slow-op log line when the configured
// threshold is crossed. A non-nil span stamps the slow-op record with
// the trace ID, cross-linking logs and traces; a histogram bucket's
// traces are GET /v1/traces?op=<op>&min_ms=<the bucket's lower bound>.
// Nil-receiver-safe.
func (t *engineTelemetry) observeOp(op string, d time.Duration, span *telemetry.Span, err error) {
	if t == nil {
		return
	}
	t.ops[op].ObserveDuration(d)
	if err != nil {
		t.errs[op].Inc()
	}
	if t.slowThresh > 0 && d >= t.slowThresh && t.slowLog != nil {
		args := []any{
			"op", op,
			"duration_ms", float64(d) / float64(time.Millisecond),
			"threshold_ms", float64(t.slowThresh) / float64(time.Millisecond),
		}
		if span != nil {
			args = append(args, "trace_id", span.TraceID().String())
		}
		t.slowLog.Warn("slow engine operation", args...)
	}
}
