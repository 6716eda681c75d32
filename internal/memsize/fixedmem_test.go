package memsize_test

import (
	"context"
	"fmt"
	"testing"

	"xar/internal/journal"
	"xar/internal/memsize"
	"xar/internal/telemetry"
)

// These tests turn the observability arc's "fixed memory" claims into
// measured numbers: the journal's event rings (PR "ride-lifecycle event
// journal") and the tracer's ring store (PR "request-scoped tracing")
// both promise bounded growth no matter how much traffic flows through
// them. memsize.Of is the measuring stick — the same deep-size walker
// the scale frontier uses for rides-per-GB.

// fillJournal records n events spread over rides.
func fillJournal(j *journal.Journal, rides, eventsPerRide int, base int64) {
	for r := 0; r < rides; r++ {
		id := base + int64(r)
		j.Record(journal.Event{Type: journal.Created, Ride: id, Value: 2000})
		for e := 1; e < eventsPerRide; e++ {
			j.Record(journal.Event{Type: journal.SearchCandidate, Ride: id, Note: "probe"})
		}
	}
}

func TestJournalRingsFixedMemory(t *testing.T) {
	cfg := journal.Config{
		PerRideCapacity: 16,
		MaxRides:        256,
		TailCapacity:    512,
	}
	j := journal.New(cfg)

	// Saturate every bound: more rides than MaxRides, more events per
	// ride than PerRideCapacity.
	fillJournal(j, 2*cfg.MaxRides, 2*cfg.PerRideCapacity, 0)
	sizeFull := memsize.Of(j)
	if sizeFull == 0 {
		t.Fatal("journal measured at zero bytes")
	}

	// Double the traffic again: rings must recycle, not grow. A small
	// tolerance absorbs map-bucket jitter from eviction churn.
	fillJournal(j, 2*cfg.MaxRides, 2*cfg.PerRideCapacity, 1<<20)
	sizeMore := memsize.Of(j)
	if limit := sizeFull + sizeFull/10; sizeMore > limit {
		t.Fatalf("journal grew past its rings: %d → %d bytes (limit %d)", sizeFull, sizeMore, limit)
	}

	// Sanity: the bound is the configured capacity, not an accident of a
	// tiny instance — a journal with double the capacity is measurably
	// larger at saturation.
	big := journal.New(journal.Config{
		PerRideCapacity: 2 * cfg.PerRideCapacity,
		MaxRides:        2 * cfg.MaxRides,
		TailCapacity:    2 * cfg.TailCapacity,
	})
	fillJournal(big, 4*cfg.MaxRides, 4*cfg.PerRideCapacity, 0)
	if bigSize := memsize.Of(big); bigSize < sizeFull+sizeFull/4 {
		t.Fatalf("double-capacity journal not measurably larger: %d vs %d", bigSize, sizeFull)
	}

	st := j.Stats()
	if st.Rides > cfg.MaxRides {
		t.Fatalf("journal retains %d rides, cap %d", st.Rides, cfg.MaxRides)
	}
}

// fillTraces records n root spans (every one sampled) through a tracer.
func fillTraces(tr *telemetry.Tracer, n int, tag string) {
	for i := 0; i < n; i++ {
		ctx, root := tr.StartSpan(context.Background(), "/v1/search")
		_, child := tr.StartSpan(ctx, "search")
		child.SetStr("probe", fmt.Sprintf("%s-%d", tag, i))
		child.End()
		root.End()
	}
}

func TestTraceRingStoreFixedMemory(t *testing.T) {
	tr := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1, Capacity: 256})
	store := tr.Store()

	fillTraces(tr, 1024, "warm")
	sizeFull := memsize.Of(store)
	if sizeFull == 0 {
		t.Fatal("trace store measured at zero bytes")
	}

	fillTraces(tr, 4096, "flood")
	sizeMore := memsize.Of(store)
	if limit := sizeFull + sizeFull/10; sizeMore > limit {
		t.Fatalf("trace store grew past its rings: %d → %d bytes (limit %d)", sizeFull, sizeMore, limit)
	}

	// Capacity is the knob: a double-size store is measurably larger.
	bigTr := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1, Capacity: 512})
	fillTraces(bigTr, 2048, "big")
	if bigSize := memsize.Of(bigTr.Store()); bigSize < sizeFull+sizeFull/4 {
		t.Fatalf("double-capacity store not measurably larger: %d vs %d", bigSize, sizeFull)
	}
}
