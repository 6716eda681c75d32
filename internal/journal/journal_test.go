package journal

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xar/internal/telemetry"
)

func TestRecordAndTimeline(t *testing.T) {
	j := New(Config{})
	j.Record(Event{Type: Created, Ride: 7, Value: 2000})
	j.Record(Event{Type: Booked, Ride: 7, TraceID: "aa"})
	j.Record(Event{Type: Booked, Ride: 9})

	evs := j.Timeline(7)
	if len(evs) != 2 {
		t.Fatalf("timeline(7) = %d events, want 2", len(evs))
	}
	if evs[0].Type != Created || evs[1].Type != Booked {
		t.Fatalf("timeline(7) types = %v, %v", evs[0].Type, evs[1].Type)
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Fatalf("seqs not ascending: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Unix == 0 {
		t.Fatal("Record did not stamp Unix")
	}
	if j.Timeline(8) != nil {
		t.Fatal("timeline of unknown ride should be nil")
	}
	if got := j.LastTraceID(7); got != "aa" {
		t.Fatalf("LastTraceID(7) = %q, want aa", got)
	}
	if got := j.LastTraceID(9); got != "" {
		t.Fatalf("LastTraceID(9) = %q, want empty", got)
	}
	if st := j.Stats(); st.Rides != 2 || st.Events != 3 {
		t.Fatalf("Stats = %+v, want 2 rides / 3 events", st)
	}
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	j.Record(Event{Type: Created, Ride: 1}) // must not panic
	if j.Timeline(1) != nil || j.Tail(TailFilter{}) != nil || j.LastSeq() != 0 {
		t.Fatal("nil journal should read as empty")
	}
	j.PerRide(func(int64, []Event, bool) bool { t.Fatal("nil PerRide must not call f"); return false })
}

func TestPerRideRingWraparound(t *testing.T) {
	j := New(Config{PerRideCapacity: 4})
	for i := 0; i < 10; i++ {
		j.Record(Event{Type: BookConflictRetried, Ride: 1, Value: float64(i)})
	}
	evs := j.Timeline(1)
	if len(evs) != 4 {
		t.Fatalf("wrapped timeline has %d events, want 4", len(evs))
	}
	// Oldest events overwritten: only values 6..9 survive, in order.
	for i, ev := range evs {
		if ev.Value != float64(6+i) {
			t.Fatalf("evs[%d].Value = %v, want %d", i, ev.Value, 6+i)
		}
	}
	wrapped := false
	j.PerRide(func(ride int64, _ []Event, w bool) bool {
		if ride == 1 {
			wrapped = w
		}
		return true
	})
	if !wrapped {
		t.Fatal("PerRide should report the ring as wrapped")
	}
}

// TestRideRingGrowsWithItsEvents: a ride's ring holds min(next power of
// two ≥ k, PerRideCapacity) slots after k events — the default capacity
// and one that is not a power of two — its timeline is the last
// min(k, cap) events in Seq order, and it reports wrapped iff an event
// was overwritten.
func TestRideRingGrowsWithItsEvents(t *testing.T) {
	for _, perRide := range []int{DefaultPerRideCapacity, 6} {
		j := New(Config{PerRideCapacity: perRide})
		var seqs []uint64
		for k := 1; k <= 2*perRide; k++ {
			j.Record(Event{Type: Booked, Ride: 5, Value: float64(k)})
			seqs = append(seqs, j.LastSeq())
			j.Record(Event{Type: Created, Ride: 6}) // interleaved: Seq is journal-wide

			wantCap := 1
			for wantCap < k {
				wantCap *= 2
			}
			wantCap = min(wantCap, perRide)
			if got := j.rides[5].Cap(); got != wantCap {
				t.Fatalf("PerRideCapacity %d, %d events: ring capacity %d, want %d", perRide, k, got, wantCap)
			}
			evs, wrapped := j.timeline(5)
			kept := seqs[max(0, k-wantCap):]
			if len(evs) != len(kept) {
				t.Fatalf("PerRideCapacity %d, %d events: timeline holds %d, want %d", perRide, k, len(evs), len(kept))
			}
			for i, ev := range evs {
				if ev.Seq != kept[i] {
					t.Fatalf("PerRideCapacity %d, %d events: timeline[%d].Seq = %d, want %d", perRide, k, i, ev.Seq, kept[i])
				}
			}
			if want := k > wantCap; wrapped != want {
				t.Fatalf("PerRideCapacity %d, %d events: wrapped = %v, want %v", perRide, k, wrapped, want)
			}
		}
	}
}

func TestEvictionPrefersTerminalRides(t *testing.T) {
	// The default config: MaxRides bounds the whole table, so the
	// terminal ride is the victim wherever it sits.
	j := New(Config{})
	j.Record(Event{Type: Created, Ride: 1})
	j.Record(Event{Type: Created, Ride: 2})
	j.Record(Event{Type: Completed, Ride: 2}) // ride 2 is terminal
	for id := int64(3); id <= DefaultMaxRides; id++ {
		j.Record(Event{Type: Created, Ride: id})
	}

	// Retention after completion: the finished ride's timeline is still
	// queryable while space allows.
	if j.Timeline(2) == nil {
		t.Fatal("completed ride's timeline should be retained")
	}

	// Table is full; a new ride must evict terminal ride 2, not live 1.
	j.Record(Event{Type: Created, Ride: DefaultMaxRides + 1})
	if j.Timeline(2) != nil {
		t.Fatal("terminal ride should be evicted first")
	}
	for _, id := range []int64{1, 3, DefaultMaxRides, DefaultMaxRides + 1} {
		if j.Timeline(id) == nil {
			t.Fatalf("live ride %d should survive eviction", id)
		}
	}
	if got := j.Stats().Rides; got != DefaultMaxRides {
		t.Fatalf("journal retains %d rides, want exactly MaxRides %d", got, DefaultMaxRides)
	}

	// No terminal rides left: the oldest live ride goes.
	j.Record(Event{Type: Created, Ride: DefaultMaxRides + 2})
	if j.Timeline(1) != nil {
		t.Fatal("oldest live ride should be evicted when no terminal candidates exist")
	}
	if j.Timeline(3) == nil {
		t.Fatal("only the oldest live ride should be evicted")
	}
}

func TestTailFilters(t *testing.T) {
	j := New(Config{})
	for i := 0; i < 5; i++ {
		j.Record(Event{Type: Created, Ride: int64(i)})
		j.Record(Event{Type: Booked, Ride: int64(i)})
	}
	if got := len(j.Tail(TailFilter{})); got != 10 {
		t.Fatalf("unfiltered tail = %d events, want 10", got)
	}
	booked := j.Tail(TailFilter{Type: Booked})
	if len(booked) != 5 {
		t.Fatalf("type filter kept %d events, want 5", len(booked))
	}
	for _, ev := range booked {
		if ev.Type != Booked {
			t.Fatalf("type filter leaked %v", ev.Type)
		}
	}
	cursor := booked[2].Seq
	after := j.Tail(TailFilter{SinceSeq: cursor})
	for _, ev := range after {
		if ev.Seq <= cursor {
			t.Fatalf("since filter leaked seq %d ≤ %d", ev.Seq, cursor)
		}
	}
	if lim := j.Tail(TailFilter{Limit: 3}); len(lim) != 3 {
		t.Fatalf("limit kept %d events, want 3", len(lim))
	} else if lim[2].Seq != j.LastSeq() {
		t.Fatal("limit should keep the most recent events")
	}
	// Ascending seq everywhere.
	all := j.Tail(TailFilter{})
	for i := 1; i < len(all); i++ {
		if all[i-1].Seq >= all[i].Seq {
			t.Fatalf("tail not seq-ascending at %d", i)
		}
	}
}

func TestTailRingWraparound(t *testing.T) {
	// The default config, events bunched on three rides: the tail keeps
	// exactly the most recent TailCapacity events fleet-wide.
	const n = DefaultTailCapacity + 12
	j := New(Config{})
	for i := 0; i < n; i++ {
		j.Record(Event{Type: Booked, Ride: int64(i % 3)})
	}
	all := j.Tail(TailFilter{Limit: 10000})
	if len(all) != DefaultTailCapacity {
		t.Fatalf("tail retains %d events, want %d", len(all), DefaultTailCapacity)
	}
	if all[0].Seq != 13 || all[len(all)-1].Seq != n {
		t.Fatalf("tail seq range [%d,%d], want [13,%d]", all[0].Seq, all[len(all)-1].Seq, n)
	}
}

func TestCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New(Config{Registry: reg})
	j.Record(Event{Type: Created, Ride: 1})
	j.Record(Event{Type: Booked, Ride: 1})
	j.Record(Event{Type: Booked, Ride: 1})

	// Eager registration: every type present in the exposition, even at
	// zero, and no other.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "\nxar_ride_events_total{"); n != len(Types()) {
		t.Fatalf("exposed %d type series, want %d:\n%s", n, len(Types()), sb.String())
	}
	for _, typ := range Types() {
		if !strings.Contains(sb.String(), `xar_ride_events_total{type="`+string(typ)+`"} `) {
			t.Fatalf("no series for type %q:\n%s", typ, sb.String())
		}
	}
	got := func(typ string) uint64 {
		return reg.Counter("xar_ride_events_total", "", telemetry.L("type", typ)).Value()
	}
	if got("created") != 1 || got("booked") != 2 || got("completed") != 0 {
		t.Fatalf("counter values wrong: created %d booked %d completed %d",
			got("created"), got("booked"), got("completed"))
	}
}

func TestKnownType(t *testing.T) {
	for _, typ := range Types() {
		if !KnownType(typ) {
			t.Fatalf("KnownType(%q) = false", typ)
		}
	}
	if KnownType("teleported") {
		t.Fatal(`KnownType("teleported") = true`)
	}
}

// TestConcurrentRecorders hammers the journal from 8 goroutines (run
// under -race) and checks the query-surface ordering guarantees:
// timelines and tails are strictly seq-ascending with no duplicates.
func TestConcurrentRecorders(t *testing.T) {
	j := New(Config{PerRideCapacity: 64, MaxRides: 64})
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ride := int64(i % 16)
				j.Record(Event{Type: Booked, Ride: ride, Note: fmt.Sprintf("g%d", g)})
				if i%7 == 0 {
					j.Timeline(ride)
					j.Tail(TailFilter{Limit: 10})
				}
			}
		}(g)
	}
	wg.Wait()

	if j.LastSeq() != goroutines*perG {
		t.Fatalf("LastSeq = %d, want %d", j.LastSeq(), goroutines*perG)
	}
	seen := 0
	j.PerRide(func(ride int64, evs []Event, _ bool) bool {
		seen++
		for i := 1; i < len(evs); i++ {
			if evs[i-1].Seq >= evs[i].Seq {
				t.Fatalf("ride %d timeline not strictly seq-ascending at %d (%d, %d)",
					ride, i, evs[i-1].Seq, evs[i].Seq)
			}
		}
		return true
	})
	if seen != 16 {
		t.Fatalf("PerRide visited %d rides, want 16", seen)
	}
	tail := j.Tail(TailFilter{Limit: 10000})
	for i := 1; i < len(tail); i++ {
		if tail[i-1].Seq >= tail[i].Seq {
			t.Fatalf("tail not strictly seq-ascending at %d", i)
		}
	}
}
