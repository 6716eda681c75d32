package memsize_test

import (
	"testing"

	"xar/internal/journal"
	"xar/internal/memsize"
)

// TestAccumulatorDeduplicates: two additions that share a backing array
// count it once — the property "first owner wins" attribution rests on.
func TestAccumulatorDeduplicates(t *testing.T) {
	type node struct{ data []byte }
	shared := make([]byte, 1<<16)

	a := memsize.NewAccumulator()
	a.Add(&node{data: shared})
	first := a.Total()
	if first < 1<<16 {
		t.Fatalf("first add counted %d bytes, want >= %d (the backing array)", first, 1<<16)
	}
	a.Add(&node{data: shared})
	second := a.Total() - first
	if second > first/10 {
		t.Fatalf("second add re-counted shared bytes: %d (first was %d)", second, first)
	}
}

func TestAccumulatorAddBytes(t *testing.T) {
	a := memsize.NewAccumulator()
	a.AddBytes(1234)
	a.AddBytes(766)
	if got := a.Total(); got != 2000 {
		t.Fatalf("Total = %d, want 2000", got)
	}
}

// TestRegistryAttributionOrder: a structure reachable from two
// components is charged to the earlier-registered one; the later one
// reports only its uniquely-owned bytes.
func TestRegistryAttributionOrder(t *testing.T) {
	shared := make([]int64, 1<<15) // 256 KiB backing array

	reg := memsize.NewRegistry()
	reg.RegisterFunc("owner", func(a *memsize.Accumulator) { a.Add(shared) })
	reg.RegisterFunc("borrower", func(a *memsize.Accumulator) { a.Add(shared) })

	sw := reg.Sweep()
	owner, borrower := sw.Component("owner"), sw.Component("borrower")
	if owner < 1<<18 {
		t.Fatalf("owner charged %d bytes, want >= %d", owner, 1<<18)
	}
	if borrower > owner/100 {
		t.Fatalf("borrower charged %d bytes for shared data owned elsewhere (owner %d)", borrower, owner)
	}
	var sum uint64
	for _, c := range sw.Components {
		sum += c.Bytes
	}
	if sum != sw.TotalBytes {
		t.Fatalf("component sum %d != TotalBytes %d", sum, sw.TotalBytes)
	}
	if sw.Unix <= 0 || sw.DurationSeconds < 0 {
		t.Fatalf("sweep metadata: unix %f, duration %f", sw.Unix, sw.DurationSeconds)
	}
}

// TestRegistryReplaceOnName: re-registering a name swaps the Measurer in
// place, keeping the original attribution order.
func TestRegistryReplaceOnName(t *testing.T) {
	reg := memsize.NewRegistry()
	reg.RegisterFunc("a", func(acc *memsize.Accumulator) { acc.AddBytes(100) })
	reg.RegisterFunc("b", func(acc *memsize.Accumulator) { acc.AddBytes(50) })
	reg.RegisterFunc("a", func(acc *memsize.Accumulator) { acc.AddBytes(200) })

	names := reg.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v, want [a b]", names)
	}
	sw := reg.Sweep()
	if got := sw.Component("a"); got != 200 {
		t.Fatalf("replaced component a = %d bytes, want 200", got)
	}
	if got := sw.Component("b"); got != 50 {
		t.Fatalf("component b = %d bytes, want 50", got)
	}
	if got := sw.Component("missing"); got != 0 {
		t.Fatalf("missing component = %d bytes, want 0", got)
	}
	// nil Measurers are ignored, not registered.
	reg.Register("nil", nil)
	if names := reg.Names(); len(names) != 2 {
		t.Fatalf("nil Measurer registered: %v", names)
	}
}

// TestMeasurerMatchesDeepWalk: a component's MeasureMem view should land
// in the same ballpark as the quiescent memsize.Of deep walk — the
// Measurer takes locks and skips struct shells, but on a ring-dominated
// journal the two must agree within 2x either way.
func TestMeasurerMatchesDeepWalk(t *testing.T) {
	j := journal.New(journal.Config{
		PerRideCapacity: 16,
		MaxRides:        256,
		TailCapacity:    512,
	})
	fillJournal(j, 512, 32, 0)

	a := memsize.NewAccumulator()
	j.MeasureMem(a)
	measured := a.Total()
	deep := memsize.Of(j)
	if measured == 0 || deep == 0 {
		t.Fatalf("zero measurement: MeasureMem %d, Of %d", measured, deep)
	}
	if measured > 2*deep || deep > 2*measured {
		t.Fatalf("MeasureMem %d bytes vs deep walk %d bytes: more than 2x apart", measured, deep)
	}
}
