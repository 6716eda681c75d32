package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"xar/internal/discretize"
	"xar/internal/geo"
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/roadnet"
)

// TestOpRoundTrip: every kind of op decodes to what was encoded, bit for
// bit (NaN and signed zero included), a history to the same history, and
// a cut-short or unknown op stops the decoding with the ops before it.
func TestOpRoundTrip(t *testing.T) {
	p, q := geo.Point{Lat: 40.71, Lng: -74.01}, geo.Point{Lat: math.NaN(), Lng: math.Inf(-1)}
	ops := []Op{
		{Kind: OpCreate, N: 4, Source: p, Dest: q, T: 28800, Limit: math.Copysign(0, -1)},
		{Kind: OpSearch, N: 255, Source: q, Dest: p, T: math.Inf(1), Span: 900, Limit: 1e308},
		{Kind: OpBook, N: 3},
		{Kind: OpCancel},
		{Kind: OpTrack, N: 1, T: -1},
		{Kind: OpComplete, N: 7},
	}
	var enc []byte
	for _, op := range ops {
		one := AppendOp(nil, op)
		got, err := DecodeOps(one, 32)
		if err != nil || len(got) != 1 || !bytes.Equal(AppendOp(nil, got[0]), one) {
			t.Fatalf("%+v decodes to %+v (%v)", op, got, err)
		}
		if op.Kind == OpCreate && (got[0].Source != p || math.Signbit(got[0].Limit) != true || !math.IsNaN(got[0].Dest.Lat)) {
			t.Fatalf("create decodes to %+v", got[0])
		}
		enc = append(enc, one...)
	}
	if len(enc) != 2*len(ops)+8*(6+7+1) {
		t.Fatalf("%d ops encode to %d bytes, want kind and N plus 8 bytes a used float", len(ops), len(enc))
	}
	all, err := DecodeOps(enc, 32)
	if err != nil || len(all) != len(ops) || !bytes.Equal(appendOps(all), enc) {
		t.Fatalf("history decodes to %d ops (%v)", len(all), err)
	}
	if got, _ := DecodeOps(enc, 2); len(got) != 2 {
		t.Fatalf("at most 2 ops: decoded %d", len(got))
	}
	for _, bad := range [][]byte{enc[:len(enc)-1], append(AppendOp(nil, ops[2]), byte(numOpKinds), 0)} {
		got, err := DecodeOps(bad, 32)
		if err == nil || len(got) != countWhole(bad) {
			t.Fatalf("%d bytes: %d ops, err %v; want the whole ops before the bad one and an error", len(bad), len(got), err)
		}
	}
}

// Outcome is what an Op did: the ride it concerned (0 if none), the
// matches a search returned, the ride's revision after it, the error.
type Outcome struct {
	Ride    index.RideID
	Matches int
	Rev     uint64
	Err     error
}

// ErrNoSuchResult refuses an op that names a ride, match or booking the
// history does not have.
var ErrNoSuchResult = errors.New("xar: op names no earlier result")

// History is what later ops resolve their names against: the rides
// created, the last search's request and matches, the bookings made.
type History struct {
	Rides    []index.RideID
	Req      Request
	Matches  []Match
	Bookings []Booking
}

// Apply runs op on e through the engine's own methods, resolving the
// names it uses in h and recording what it creates there. It lives with
// the tests until a program applies ops: the engine's callers call its
// methods.
func (e *Engine) Apply(ctx context.Context, h *History, op Op) (out Outcome) {
	n := int(op.N)
	named := [numOpKinds]int{OpBook: len(h.Matches), OpCancel: len(h.Bookings), OpTrack: len(h.Rides), OpComplete: len(h.Rides)}
	if op.Kind >= numOpKinds {
		return Outcome{Err: fmt.Errorf("xar: unknown op kind %d", op.Kind)}
	} else if op.Kind >= OpBook && n >= named[op.Kind] {
		return Outcome{Err: ErrNoSuchResult}
	}
	switch op.Kind {
	case OpCreate:
		out.Ride, out.Err = e.CreateRideCtx(ctx, RideOffer{Source: op.Source, Dest: op.Dest, Departure: op.T, Seats: n, DetourLimit: op.Limit})
		if out.Err == nil {
			h.Rides = append(h.Rides, out.Ride)
		}
	case OpSearch:
		h.Req = Request{Source: op.Source, Dest: op.Dest, EarliestDeparture: op.T, LatestDeparture: op.T + op.Span, WalkLimit: op.Limit}
		h.Matches, out.Err = e.SearchKCtx(ctx, h.Req, n)
		out.Matches = len(h.Matches)
	case OpBook:
		bk, err := e.BookCtx(ctx, h.Matches[n], h.Req)
		if out.Ride, out.Err = h.Matches[n].Ride, err; err == nil {
			h.Bookings = append(h.Bookings, bk)
		}
	case OpCancel:
		bk := h.Bookings[n]
		out.Ride, out.Err = bk.Ride, e.CancelBookingCtx(ctx, bk.Ride, bk.PickupNode, bk.DropoffNode)
	case OpTrack:
		out.Ride = h.Rides[n]
		_, out.Err = e.TrackCtx(ctx, out.Ride, op.T)
	case OpComplete:
		if out.Ride = h.Rides[n]; !e.CompleteRide(out.Ride) {
			out.Err = ErrUnknownRide
		}
	}
	if r := e.Ride(out.Ride); r != nil {
		out.Rev = r.Rev
	}
	return out
}

// Run applies ops to e in order, with a fresh history.
func Run(e *Engine, ops []Op) []Outcome {
	var h History
	out := make([]Outcome, len(ops))
	for i, op := range ops {
		out[i] = e.Apply(context.Background(), &h, op)
	}
	return out
}

// countWhole is how many whole, known ops lead b.
func countWhole(b []byte) int {
	n := 0
	for len(b) >= 2 && OpKind(b[0]) < numOpKinds {
		op := Op{Kind: OpKind(b[0])}
		need := 2 + 8*len(op.floats())
		if len(b) < need {
			break
		}
		b, n = b[need:], n+1
	}
	return n
}

func appendOps(ops []Op) []byte {
	var b []byte
	for _, op := range ops {
		b = AppendOp(b, op)
	}
	return b
}

var opWorld = sync.OnceValues(func() (*discretize.Discretization, error) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		return nil, err
	}
	return discretize.Build(city, discretize.DefaultConfig())
})

// opSeeds are histories on the small test world: a ride offered corner
// to corner, a search along it, a booking, its cancellation, the booking
// again, tracking and the completion; the same with non-finite and out-of-range values; ops
// that name results the history does not have.
func opSeeds(d *discretize.Discretization) [][]byte {
	g := d.City().Graph
	a, b := g.Point(0), g.Point(roadnet.NodeID(g.NumNodes()-1))
	mid := geo.Point{Lat: (a.Lat + b.Lat) / 2, Lng: (a.Lng + b.Lng) / 2}
	nan, inf := math.NaN(), math.Inf(1)
	return [][]byte{
		appendOps([]Op{
			{Kind: OpCreate, N: 4, Source: a, Dest: b, T: 28800, Limit: 2000},
			{Kind: OpSearch, Source: a, Dest: mid, T: 28000, Span: 1800, Limit: 800},
			{Kind: OpBook},
			{Kind: OpCancel},
			{Kind: OpBook},
			{Kind: OpTrack, T: 29000},
			{Kind: OpTrack, T: 40000},
			{Kind: OpComplete},
		}),
		appendOps([]Op{
			{Kind: OpCreate, N: 4, Source: a, Dest: b, T: nan, Limit: 2000},
			{Kind: OpCreate, N: 4, Source: a, Dest: b, T: 28800, Limit: inf},
			{Kind: OpCreate, N: 1, Source: a, Dest: b, T: 28800, Limit: 2000},
			{Kind: OpCreate, N: 4, Source: geo.Point{Lat: 91}, Dest: b, T: 28800},
			{Kind: OpCreate, N: 3, Source: b, Dest: a, T: 28800, Limit: -1},
			{Kind: OpCreate, N: 3, Source: b, Dest: a, T: 28800, Limit: 1e9},
			{Kind: OpSearch, Source: b, Dest: mid, T: nan, Span: 900, Limit: 800},
			{Kind: OpSearch, Source: b, Dest: mid, T: -inf, Span: inf, Limit: inf},
			{Kind: OpSearch, Source: b, Dest: mid, T: 0, Span: inf, Limit: inf},
			{Kind: OpBook, N: 9},
			{Kind: OpTrack, T: nan},
			{Kind: OpTrack, T: -inf},
			{Kind: OpCancel, N: 2},
			{Kind: OpComplete, N: 200},
		}),
	}
}

// refused reports whether the engine must turn op down whatever the
// history: a non-finite value where only a finite one means anything, a
// point off the globe, fewer than two seats, a departure window that
// ends before it starts. The window judged is the one Apply builds,
// [T, T+Span]: a negative Span too small to move T leaves a valid
// window, and a NaN at either end fails the comparison.
func refused(op Op) bool {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch op.Kind {
	case OpCreate:
		return !op.Source.Valid() || !op.Dest.Valid() || !finite(op.T) || !finite(op.Limit) || op.Limit < 0 || op.N == 1
	case OpSearch:
		return !op.Source.Valid() || !op.Dest.Valid() || !(op.T+op.Span >= op.T) || !(op.Limit >= 0)
	case OpTrack:
		return !finite(op.T)
	}
	return false
}

// FuzzEngineOps decodes up to 32 ops and applies them to two fresh
// engines over the small test world, with the journal on, one op to both
// at a time. After every op the index's invariants hold (CheckInvariants
// runs structuralDefect over every posting list), the journal's sequence
// numbers are total — every event recorded, 1 … LastSeq, in order — and
// an op with a value only a refusal can answer was refused. Two
// relations hold besides:
//
//   - determinism: the two engines give every op the same outcome,
//     matches and booking, and their journals hold the same events (the
//     wall-clock stamp aside);
//   - inverse: a ride's first booking, cancelled before anything else
//     touched the ride, leaves it as it was before the booking, its
//     revision aside (sameRide says what that covers).
func FuzzEngineOps(f *testing.F) {
	d, err := opWorld()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range opSeeds(d) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, _ := DecodeOps(data, 32)
		var es [2]*Engine
		var js [2]*journal.Journal
		for i := range es {
			cfg := DefaultConfig()
			cfg.Journal = journal.New(journal.Config{})
			e, err := NewEngine(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			es[i], js[i] = e, cfg.Journal
		}
		e, twin := es[0], es[1]
		var h, th History
		// undo holds, per booking that was its ride's first, the ride as it
		// was before the booking and the revision the booking left.
		type firstBooking struct {
			before rideState
			rev    uint64
		}
		undo := map[int]firstBooking{}
		for i, op := range ops {
			var before *rideState
			if op.Kind == OpBook && int(op.N) < len(h.Matches) {
				if st, ok := captureRide(e, h.Matches[op.N].Ride); ok && len(st.Via) == 2 {
					before = &st
				}
			}
			first, untouched := undo[int(op.N)], false
			if op.Kind == OpCancel && int(op.N) < len(h.Bookings) {
				if r := e.Ride(h.Bookings[op.N].Ride); r != nil && first.before.Route != nil {
					untouched = r.Rev == first.rev
				}
			}

			out := e.Apply(context.Background(), &h, op)
			tout := twin.Apply(context.Background(), &th, op)
			if out.Ride != tout.Ride || out.Matches != tout.Matches || out.Rev != tout.Rev || fmt.Sprint(out.Err) != fmt.Sprint(tout.Err) ||
				!slices.Equal(h.Matches, th.Matches) || !slices.Equal(h.Bookings, th.Bookings) {
				t.Fatalf("op %d %+v: outcome %+v, on a second engine %+v", i, op, out, tout)
			}
			if refused(op) && out.Err == nil {
				t.Fatalf("op %d %+v was not refused", i, op)
			}
			if err := e.Index().CheckInvariants(); err != nil {
				t.Fatalf("after op %d %+v (%v): %v", i, op, out.Err, err)
			}
			evs := js[0].Tail(journal.TailFilter{Limit: journal.DefaultTailCapacity})
			for j, ev := range evs {
				if ev.Seq != uint64(j+1) {
					t.Fatalf("after op %d: event %d has Seq %d", i, j, ev.Seq)
				}
			}
			if last := js[0].LastSeq(); last != uint64(len(evs)) {
				t.Fatalf("after op %d: %d events, LastSeq %d", i, len(evs), last)
			}
			tevs := js[1].Tail(journal.TailFilter{Limit: journal.DefaultTailCapacity})
			if !slices.EqualFunc(evs, tevs, func(a, b journal.Event) bool { a.Unix, b.Unix = 0, 0; return a == b }) {
				t.Fatalf("after op %d: journals of %d and %d events differ", i, len(evs), len(tevs))
			}

			switch {
			case op.Kind == OpBook && out.Err == nil && before != nil:
				undo[len(h.Bookings)-1] = firstBooking{*before, out.Rev}
			case op.Kind == OpCancel && out.Err == nil:
				delete(undo, int(op.N))
				if untouched {
					after, _ := captureRide(e, out.Ride)
					if diff := sameRide(first.before, after); diff != "" {
						t.Fatalf("op %d: cancelling ride %d's first booking left its %s other than before the booking", i, out.Ride, diff)
					}
				}
			}
		}
	})
}

// rideState is a ride as the inverse relation compares it: its schedule,
// seats and budget, and what the index derived from them — the ETA it is
// listed under in each cluster and its support columns, cluster by
// cluster.
type rideState struct {
	Route                []roadnet.NodeID
	RouteETA             []float64
	Via                  []index.ViaPoint
	Progress, SeatsAvail int
	DetourLimit          float64
	Listed               []bool
	ListETA              []float64
	Det                  []float64
	Runs                 []int32
}

// captureRide reads ride id's state under the index's read lock, or
// reports that no such ride is registered.
func captureRide(e *Engine, id index.RideID) (rideState, bool) {
	e.ix.RLock()
	defer e.ix.RUnlock()
	r := e.ix.Ix.Ride(id)
	if r == nil {
		return rideState{}, false
	}
	st := rideState{
		Route: slices.Clone(r.Route), RouteETA: slices.Clone(r.RouteETA), Via: slices.Clone(r.Via),
		Progress: r.Progress, SeatsAvail: r.SeatsAvail, DetourLimit: r.DetourLimit,
	}
	for c := range e.disc.NumClusters() {
		eta, ok := e.ix.Ix.ListETA(r, c)
		st.Listed, st.ListETA = append(st.Listed, ok), append(st.ListETA, eta)
		det, runs := r.Supports(c)
		st.Det, st.Runs = append(st.Det, det...), append(st.Runs, runs...)
	}
	return st, true
}

// sameRide names the first part of b that differs from a, or returns "".
// Floats compare with ==: bit for bit, short of signed zeros and NaN,
// which no finite schedule holds.
func sameRide(a, b rideState) string {
	switch {
	case !slices.Equal(a.Route, b.Route):
		return "route"
	case !slices.Equal(a.RouteETA, b.RouteETA):
		return "route ETAs"
	case !slices.Equal(a.Via, b.Via):
		return "via-points"
	case a.Progress != b.Progress:
		return "progress"
	case a.SeatsAvail != b.SeatsAvail:
		return "free seats"
	case a.DetourLimit != b.DetourLimit:
		return fmt.Sprintf("detour limit (%v, was %v)", b.DetourLimit, a.DetourLimit)
	case !slices.Equal(a.Listed, b.Listed) || !slices.Equal(a.ListETA, b.ListETA):
		return "listing ETAs"
	case !slices.Equal(a.Det, b.Det) || !slices.Equal(a.Runs, b.Runs):
		return "support columns"
	}
	return ""
}
