package audit

import (
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"xar/internal/journal"
	"xar/internal/telemetry"
)

// newJournalAuditor builds an auditor over a bare journal (no index view,
// no graph), so Audit exercises exactly the causality sweep.
func newJournalAuditor(j *journal.Journal, reg *telemetry.Registry) *Auditor {
	return New(Config{
		Target:   Target{Journal: j},
		Registry: reg,
		Logger:   slog.New(slog.NewTextHandler(discard{}, nil)),
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestCausalityCleanSequence(t *testing.T) {
	j := journal.New(journal.Config{})
	j.Record(journal.Event{Type: journal.Created, Ride: 1})
	j.Record(journal.Event{Type: journal.Booked, Ride: 1})
	j.Record(journal.Event{Type: journal.SpliceCommitted, Ride: 1})
	j.Record(journal.Event{Type: journal.PickedUp, Ride: 1})
	j.Record(journal.Event{Type: journal.DroppedOff, Ride: 1})
	j.Record(journal.Event{Type: journal.Completed, Ride: 1})

	a := newJournalAuditor(j, nil)
	rep := a.Audit()
	if !rep.Clean() {
		t.Fatalf("clean lifecycle flagged: %+v", rep.Violations)
	}
	if rep.JournalRides != 1 {
		t.Fatalf("JournalRides = %d, want 1", rep.JournalRides)
	}
}

func TestCausalityBookedBeforeCreated(t *testing.T) {
	j := journal.New(journal.Config{})
	j.Record(journal.Event{Type: journal.Booked, Ride: 7, TraceID: "cafe"})
	j.Record(journal.Event{Type: journal.PickedUp, Ride: 7})

	rep := newJournalAuditor(j, nil).Audit()
	if len(rep.Violations) != 1 {
		t.Fatalf("got %d violations, want exactly 1 (flag once per ride): %+v",
			len(rep.Violations), rep.Violations)
	}
	v := rep.Violations[0]
	if v.Invariant != InvCausality || v.Ride != 7 {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Detail, "before created") {
		t.Fatalf("detail = %q", v.Detail)
	}
	if v.TraceID != "cafe" {
		t.Fatalf("trace cross-link = %q, want cafe", v.TraceID)
	}
}

func TestCausalityDoubleTerminal(t *testing.T) {
	j := journal.New(journal.Config{})
	j.Record(journal.Event{Type: journal.Created, Ride: 3})
	j.Record(journal.Event{Type: journal.Completed, Ride: 3})
	j.Record(journal.Event{Type: journal.Completed, Ride: 3})

	rep := newJournalAuditor(j, nil).Audit()
	if len(rep.Violations) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(rep.Violations), rep.Violations)
	}
	if v := rep.Violations[0]; v.Invariant != InvCausality || !strings.Contains(v.Detail, "double-terminal") {
		t.Fatalf("violation = %+v", v)
	}
}

func TestCausalitySearchCandidateIsExempt(t *testing.T) {
	// Sampled search_candidate events race the ride's lifecycle by design
	// and must never trip the before-created check.
	j := journal.New(journal.Config{})
	j.Record(journal.Event{Type: journal.SearchCandidate, Ride: 5})
	j.Record(journal.Event{Type: journal.Created, Ride: 5})

	if rep := newJournalAuditor(j, nil).Audit(); !rep.Clean() {
		t.Fatalf("search_candidate before created flagged: %+v", rep.Violations)
	}
}

func TestCausalityWraparoundExemption(t *testing.T) {
	// A long-lived ride whose created event was legitimately overwritten
	// must not be flagged; a wrapped ride CAN still double-terminal.
	j := journal.New(journal.Config{PerRideCapacity: 4})
	j.Record(journal.Event{Type: journal.Created, Ride: 9})
	for i := 0; i < 8; i++ {
		j.Record(journal.Event{Type: journal.BookConflictRetried, Ride: 9})
	}
	if rep := newJournalAuditor(j, nil).Audit(); !rep.Clean() {
		t.Fatalf("wrapped ring flagged: %+v", rep.Violations)
	}

	j.Record(journal.Event{Type: journal.Completed, Ride: 9})
	j.Record(journal.Event{Type: journal.Completed, Ride: 9})
	rep := newJournalAuditor(j, nil).Audit()
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0].Detail, "double-terminal") {
		t.Fatalf("wrapped double-terminal: %+v", rep.Violations)
	}
}

// TestCausalityFullRingIsNotWrapped: a ring holding exactly its capacity
// has lost nothing, so a missing created event is still a finding; only
// an overwritten event earns the exemption.
func TestCausalityFullRingIsNotWrapped(t *testing.T) {
	j := journal.New(journal.Config{PerRideCapacity: 4})
	for i := 0; i < 4; i++ {
		j.Record(journal.Event{Type: journal.Booked, Ride: 12})
	}
	rep := newJournalAuditor(j, nil).Audit()
	if len(rep.Violations) != 1 || rep.Violations[0].Invariant != InvCausality {
		t.Fatalf("4 booked events in a 4-slot ring, no created: violations = %+v, want one causality", rep.Violations)
	}

	j.Record(journal.Event{Type: journal.Booked, Ride: 12})
	if rep := newJournalAuditor(j, nil).Audit(); !rep.Clean() {
		t.Fatalf("5 events in a 4-slot ring overwrote one and are exempt: %+v", rep.Violations)
	}
}

func TestCountersAndState(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := journal.New(journal.Config{})
	j.Record(journal.Event{Type: journal.Booked, Ride: 11})
	a := newJournalAuditor(j, reg)

	a.Audit() // 1 violation
	a.Audit() // same violation found again (state persists in journal)

	sweeps, byInv := snapshotAudit(t, reg)
	if sweeps != 2 {
		t.Fatalf("xar_audit_sweeps_total = %v, want 2", sweeps)
	}
	// Eager registration: all four labels present even at zero.
	for _, inv := range Invariants() {
		if _, ok := byInv[inv]; !ok {
			t.Fatalf("missing series for invariant %q: %v", inv, byInv)
		}
	}
	if byInv[InvCausality] != 2 || byInv[InvCapacity] != 0 {
		t.Fatalf("violation counters = %v", byInv)
	}

	if got := a.TotalViolations(); got != 2 {
		t.Fatalf("TotalViolations = %d, want 2", got)
	}
	if rec := a.RecentViolatingRides(); len(rec) != 1 || rec[0] != 11 {
		t.Fatalf("RecentViolatingRides = %v, want [11] (deduped)", rec)
	}
	rep := a.LastReport()
	if len(rep.Violations) != 1 || rep.UnixSeconds == 0 || rep.DurationSeconds < 0 {
		t.Fatalf("LastReport = %+v", rep)
	}
	h := a.Health()
	if h.TotalViolations != 2 || h.LastViolations != 1 {
		t.Fatalf("Health = %+v", h)
	}
}

func snapshotAudit(t *testing.T, reg *telemetry.Registry) (sweeps float64, byInv map[string]float64) {
	t.Helper()
	// The exposition names exactly the series that exist, so a missing
	// eager registration stays missing here.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	sweeps = float64(reg.Counter("xar_audit_sweeps_total", "", nil).Value())
	byInv = map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `xar_audit_violations_total{invariant="`)
		if !ok {
			continue
		}
		inv, _, _ := strings.Cut(rest, `"`)
		byInv[inv] = float64(reg.Counter("xar_audit_violations_total", "", telemetry.L("invariant", inv)).Value())
	}
	return sweeps, byInv
}

func TestForceErrorCrossLink(t *testing.T) {
	// A violation whose ride has a journaled trace forces that trace into
	// the store's always-keep error ring.
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1})
	_, sp := tracer.StartSpan(context.Background(), "op.book")
	id := sp.TraceID()
	sp.End()

	j := journal.New(journal.Config{})
	j.Record(journal.Event{Type: journal.Booked, Ride: 21, TraceID: id.String()})

	a := New(Config{
		Target:     Target{Journal: j},
		TraceStore: tracer.Store(),
		Logger:     slog.New(slog.NewTextHandler(discard{}, nil)),
	})
	rep := a.Audit()
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %+v", rep.Violations)
	}
	if _, ok := tracer.Store().Get(id); !ok {
		t.Fatal("trace evaporated from the store")
	}
	if !tracer.Store().ForceError(id) {
		t.Fatal("trace should already be pinned in the error ring")
	}
}

func TestStartStop(t *testing.T) {
	j := journal.New(journal.Config{})
	j.Record(journal.Event{Type: journal.Created, Ride: 1})
	a := New(Config{
		Target:   Target{Journal: j},
		Interval: time.Millisecond,
		Logger:   slog.New(slog.NewTextHandler(discard{}, nil)),
	})
	a.Start()
	a.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for a.LastReport().UnixSeconds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sweeper never ran")
		}
		time.Sleep(time.Millisecond)
	}
	a.Stop()
	a.Stop() // no-op
	if !a.LastReport().Clean() {
		t.Fatalf("clean journal flagged: %+v", a.LastReport().Violations)
	}
}

func TestAuditNilTargets(t *testing.T) {
	// No view, no journal: a sweep still completes and reports empty.
	a := New(Config{Logger: slog.New(slog.NewTextHandler(discard{}, nil))})
	rep := a.Audit()
	if !rep.Clean() || rep.RidesChecked != 0 {
		t.Fatalf("empty-target report = %+v", rep)
	}
}
