package core

// Fault-injection drills for the online invariant auditor: corrupt the
// engine's state behind its back — the exact failure modes the auditor
// exists to catch — and assert each seeded fault surfaces as exactly its
// own `invariant` label. Lives in package core (not audit) because the
// faults need white-box access to the index under its lock.

import (
	"log/slog"
	"strings"
	"testing"

	"xar/internal/audit"
	"xar/internal/discretize"
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// auditedEngine builds a journaled engine plus an auditor over it, with a
// couple of rides and at least one booking so every invariant family has
// real state to check.
func auditedEngine(t *testing.T) (*Engine, *journal.Journal, *audit.Auditor, *telemetry.Registry) {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jr := journal.New(journal.Config{})
	reg := telemetry.NewRegistry()
	qc := quality.New(reg)
	cfg := DefaultConfig()
	cfg.Journal = jr
	cfg.Quality = qc
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := audit.New(audit.Config{
		Target: audit.Target{
			View:    e.Index(),
			Graph:   d.City().Graph,
			Epsilon: d.Epsilon(),
			Journal: jr,
			Quality: qc,
		},
		Registry: reg,
		Logger:   slog.New(slog.NewTextHandler(discardWriter{}, nil)),
	})

	src, dst := farPoints(t, e)
	for i := 0; i < 4; i++ {
		if _, err := e.CreateRide(RideOffer{
			Source: src, Dest: dst,
			Departure:   1000 + float64(i)*200,
			DetourLimit: 2000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Book a rider onto ride 1 so pickups > 0 somewhere: the detour-bound
	// and seat-accounting checks then exercise their non-trivial branches.
	r := e.Ride(1)
	if r == nil {
		t.Fatal("ride 1 missing")
	}
	req := requestAlong(e, r, 0.2, 0.8, 3600, 900)
	ms, err := e.Search(req)
	if err != nil || len(ms) == 0 {
		t.Fatalf("seed search found no matches (err=%v)", err)
	}
	if _, err := e.Book(ms[0], req); err != nil {
		t.Fatalf("seed booking failed: %v", err)
	}
	return e, jr, a, reg
}

// labels returns the distinct invariant labels in a report, and the set
// of ride IDs flagged under each.
func labels(rep audit.Report) map[string]map[int64]bool {
	out := map[string]map[int64]bool{}
	for _, v := range rep.Violations {
		if out[v.Invariant] == nil {
			out[v.Invariant] = map[int64]bool{}
		}
		out[v.Invariant][v.Ride] = true
	}
	return out
}

func TestAuditFaultInjection(t *testing.T) {
	e, jr, a, reg := auditedEngine(t)

	mutate := func(id index.RideID, f func(r *index.Ride)) {
		e.ix.Lock()
		f(e.ix.Ix.Ride(id))
		e.ix.Unlock()
	}

	// Baseline: a healthy engine audits clean.
	if rep := a.Audit(); !rep.Clean() {
		t.Fatalf("clean engine flagged: %+v", rep.Violations)
	}

	// Fault 1 — detour_bound: shrink the recorded solo-route length so the
	// realized detour appears to blow through tolerance + 4ε per booking.
	var savedBase float64
	mutate(1, func(r *index.Ride) { savedBase = r.BaseRouteLen; r.BaseRouteLen -= 5e5 })
	rep := a.Audit()
	got := labels(rep)
	if len(got) != 1 || !got[audit.InvDetourBound][1] {
		t.Fatalf("detour fault: labels = %v, want exactly {%s: ride 1}", got, audit.InvDetourBound)
	}
	mutate(1, func(r *index.Ride) { r.BaseRouteLen = savedBase })
	if rep := a.Audit(); !rep.Clean() {
		t.Fatalf("detour repair left violations: %+v", rep.Violations)
	}

	// Fault 2 — capacity: corrupt the seat ledger (a seat vanishes; the
	// ride still has one, so its index registration stays right).
	var savedSeats int
	mutate(2, func(r *index.Ride) { savedSeats = r.SeatsAvail; r.SeatsAvail-- })
	got = labels(a.Audit())
	if len(got) != 1 || !got[audit.InvCapacity][2] {
		t.Fatalf("capacity fault: labels = %v, want exactly {%s: ride 2}", got, audit.InvCapacity)
	}
	mutate(2, func(r *index.Ride) { r.SeatsAvail = savedSeats })
	if rep := a.Audit(); !rep.Clean() {
		t.Fatalf("capacity repair left violations: %+v", rep.Violations)
	}

	// Faults 2b, 2c — the listed-iff-bookable invariant, broken from each
	// side by flipping SeatsAvail behind the engine's back: the ledger is
	// off (capacity) and the index disagrees with it (index_consistency),
	// with findings that name the direction.
	indexFindings := func(rep audit.Report, ride int64) string {
		var details []string
		for _, v := range rep.Violations {
			if v.Invariant == audit.InvIndexConsistency && v.Ride == ride {
				details = append(details, v.Detail)
			}
		}
		return strings.Join(details, "; ")
	}
	seatFault := func(id index.RideID, seats int, want ...string) {
		t.Helper()
		var saved int
		mutate(id, func(r *index.Ride) { saved = r.SeatsAvail; r.SeatsAvail = seats })
		rep := a.Audit()
		ride := int64(id)
		if got := labels(rep); len(got) != 2 || !got[audit.InvCapacity][ride] || !got[audit.InvIndexConsistency][ride] || len(got[audit.InvIndexConsistency]) != 1 {
			t.Fatalf("ride %d with %d seats: labels = %v, want exactly {%s, %s: ride %d}",
				id, seats, got, audit.InvCapacity, audit.InvIndexConsistency, id)
		}
		for _, w := range want {
			if found := indexFindings(rep, ride); !strings.Contains(found, w) {
				t.Fatalf("ride %d with %d seats: index findings %q lack %q", id, seats, found, w)
			}
		}
		mutate(id, func(r *index.Ride) { r.SeatsAvail = saved })
		if rep := a.Audit(); !rep.Clean() {
			t.Fatalf("seat repair left violations: %+v", rep.Violations)
		}
	}
	seatFault(2, 0, "full ride is listed / still has supports")
	src, dst := farPoints(t, e)
	full, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 5000, Seats: 2, DetourLimit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	req := requestAlong(e, e.Ride(full), 0.2, 0.8, 600, 900)
	ms, err := e.Search(req)
	if err != nil || len(ms) != 1 || ms[0].Ride != full {
		t.Fatalf("search for the two-seat ride returned %+v (err %v)", ms, err)
	}
	if _, err := e.Book(ms[0], req); err != nil {
		t.Fatal(err)
	}
	if rep := a.Audit(); !rep.Clean() {
		t.Fatalf("a ride booked full flagged: %+v", rep.Violations)
	}
	seatFault(full, 1, "ride with a free seat and uncrossed route has no supports")

	// Fault 3 — index_consistency: drop ride 3 from one of its cluster
	// lists behind the engine's back; its schedule still supports the
	// cluster, so the index and the schedule now disagree.
	e.ix.RLock()
	clusters := e.ix.Ix.Ride(3).ReachableClusters()
	e.ix.RUnlock()
	if len(clusters) == 0 {
		t.Fatal("ride 3 supports no clusters; cannot seed index fault")
	}
	e.ix.Lock()
	dropped := e.ix.Ix.DropFromClusterList(clusters[0], 3)
	e.ix.Unlock()
	if !dropped {
		t.Fatalf("ride 3 was not listed in cluster %d", clusters[0])
	}
	got = labels(a.Audit())
	if len(got) != 1 || !got[audit.InvIndexConsistency][3] {
		t.Fatalf("index fault: labels = %v, want exactly {%s: ride 3}", got, audit.InvIndexConsistency)
	}

	// Fault 4 — causality: journal a lifecycle event for a ride that was
	// never created. (The index fault from above persists; no repair path
	// exists short of rebuilding, which is the point of the drill.)
	jr.Record(journal.Event{Type: journal.Booked, Ride: 999999})
	got = labels(a.Audit())
	if len(got) != 2 || !got[audit.InvIndexConsistency][3] || !got[audit.InvCausality][999999] {
		t.Fatalf("causality fault: labels = %v, want {%s: ride 3, %s: ride 999999}",
			got, audit.InvIndexConsistency, audit.InvCausality)
	}

	// Fault 5 — funnel accounting: feed the quality collector examined
	// candidates that were never classified into any stage, the signature
	// of a search that dropped a candidate without attributing it.
	e.Quality().AddFunnel(&[quality.NumStages]uint64{}, 5)
	got = labels(a.Audit())
	if len(got[audit.InvFunnelAccounting]) == 0 {
		t.Fatalf("funnel fault: labels = %v, want %s", got, audit.InvFunnelAccounting)
	}

	// Cumulative accounting: every family's counter moved, sweeps counted,
	// and the violating rides are queued for the debug bundle.
	var sweeps float64
	byInv := map[string]float64{}
	for _, fam := range reg.Snapshot() {
		switch fam.Name {
		case "xar_audit_sweeps_total":
			sweeps = *fam.Series[0].Value
		case "xar_audit_violations_total":
			for _, s := range fam.Series {
				byInv[s.Labels["invariant"]] = *s.Value
			}
		}
	}
	if sweeps != 13 {
		t.Fatalf("xar_audit_sweeps_total = %v, want 13", sweeps)
	}
	for _, inv := range audit.Invariants() {
		if byInv[inv] < 1 {
			t.Fatalf("xar_audit_violations_total{invariant=%q} = %v, want ≥ 1 (all: %v)",
				inv, byInv[inv], byInv)
		}
	}
	recent := a.RecentViolatingRides()
	want := map[int64]bool{1: true, 2: true, 3: true, 999999: true}
	for _, id := range recent {
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("RecentViolatingRides = %v, missing %v", recent, want)
	}
}

// TestAuditCleanUnderWorkload runs a realistic serial workload — creates,
// searches, bookings, cancels, tracking, completions — auditing after
// every phase: the auditor must stay silent on a healthy engine no matter
// where in the lifecycle it samples.
func TestAuditCleanUnderWorkload(t *testing.T) {
	e, _, a, _ := auditedEngine(t)
	src, dst := farPoints(t, e)

	check := func(phase string) {
		t.Helper()
		if rep := a.Audit(); !rep.Clean() {
			t.Fatalf("after %s: %+v", phase, rep.Violations)
		}
	}

	var bookings []Booking
	for i := 0; i < 6; i++ {
		id, err := e.CreateRide(RideOffer{
			Source: src, Dest: dst,
			Departure:   float64(500 + i*300),
			DetourLimit: 1500 + float64(i)*500,
			Seats:       2 + i%3,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := e.Ride(id)
		req := requestAlong(e, r, 0.15, 0.85, 3600, 900)
		if ms, err := e.Search(req); err == nil && len(ms) > 0 {
			if bk, err := e.Book(ms[0], req); err == nil {
				bookings = append(bookings, bk)
			}
		}
	}
	if len(bookings) == 0 {
		t.Fatal("workload landed no bookings")
	}
	check("create+book")

	_ = e.CancelBooking(bookings[0].Ride, bookings[0].PickupNode, bookings[0].DropoffNode)
	check("cancel")

	if _, err := e.TrackAll(2500); err != nil {
		t.Fatal(err)
	}
	check("track")

	e.CompleteRide(bookings[len(bookings)-1].Ride)
	check("complete")
}
