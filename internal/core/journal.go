package core

import (
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/telemetry"
)

// Journal returns the engine's ride-lifecycle event journal (nil when
// the engine was built without one).
func (e *Engine) Journal() *journal.Journal { return e.jr }

// recordEvent files one ride-lifecycle event into the journal with the
// operation span's trace ID as cross-link. One branch when journaling is
// off; the journal itself never takes engine locks, so emit sites may
// sit inside an index critical section.
func (e *Engine) recordEvent(t journal.EventType, ride index.RideID, span *telemetry.Span, value float64, note string) {
	if e.jr == nil {
		return
	}
	ev := journal.Event{Type: t, Ride: int64(ride), Value: value, Note: note}
	if span != nil {
		if id := span.TraceID(); !id.IsZero() {
			ev.TraceID = id.String()
		}
	}
	e.jr.Record(ev)
}
