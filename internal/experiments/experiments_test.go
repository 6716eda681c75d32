package experiments

import (
	"strings"
	"testing"

	"xar/internal/workload"
)

// tinyScale keeps the full experiment suite fast in unit tests.
func tinyScale() Scale {
	s := DefaultScale()
	s.CityRows = 22
	s.CityCols = 13
	s.Requests = 300
	return s
}

func tinyWorld(t testing.TB) *World {
	t.Helper()
	w, err := BuildWorld(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// denseWorld concentrates 800 trips into a 2-hour window so sharing
// kicks in — needed by the mode-comparison shape assertions.
func denseWorld(t testing.TB) *World {
	t.Helper()
	s := tinyScale()
	w, err := BuildWorld(s)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(800, s.Seed+1)
	wcfg.StartHour = 7
	wcfg.EndHour = 9
	wcfg.MaxTripDist = maxTripDist(w.City)
	w.Trips, err = workload.Generate(w.City, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorld(t *testing.T) {
	w := tinyWorld(t)
	if len(w.Trips) != 300 {
		t.Fatalf("trips = %d", len(w.Trips))
	}
	if w.Disc.NumClusters() < 2 {
		t.Fatal("too few clusters")
	}
	offers, requests := w.SplitOffersRequests()
	if len(offers) == 0 || len(requests) == 0 || len(offers)+len(requests) != len(w.Trips) {
		t.Fatalf("split %d/%d of %d", len(offers), len(requests), len(w.Trips))
	}
}

func TestFig3aShape(t *testing.T) {
	w := tinyWorld(t)
	r, err := Fig3a(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bookings == 0 {
		t.Fatal("no bookings happened; cannot evaluate the guarantee")
	}
	// The paper's hard guarantee: nothing beyond 4ε.
	if r.FracUnder4E != 1.0 {
		t.Fatalf("%.4f of errors under 4ε, want 1.0 (max %.1f, ε %.1f)",
			r.FracUnder4E, r.MaxError, r.Epsilon)
	}
	// Shape: the vast majority under ε (paper: 98%). Allow slack for the
	// tiny scale but insist on the dominant mass.
	if r.FracUnder1E < 0.7 {
		t.Fatalf("only %.2f of errors under ε; expected the bulk", r.FracUnder1E)
	}
	if r.FracUnder2E < r.FracUnder1E || r.FracUnder4E < r.FracUnder2E {
		t.Fatal("CDF not monotone")
	}
	if !strings.Contains(r.Table(), "Fig 3a") {
		t.Fatal("table rendering broken")
	}
}

func TestFig3bInverseRelation(t *testing.T) {
	w := tinyWorld(t)
	rows, err := Fig3b(w, []float64{600, 1200, 2400})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Clusters > rows[i-1].Clusters {
			t.Fatalf("clusters grew with ε: %v", rows)
		}
	}
	for _, r := range rows {
		if r.MeasuredEpsilon > r.Epsilon {
			t.Fatalf("measured ε %.1f exceeds requested %.1f", r.MeasuredEpsilon, r.Epsilon)
		}
	}
	if !strings.Contains(RenderFig3b(rows), "clusters") {
		t.Fatal("render broken")
	}
}

func TestFig3cdMoreClustersMoreMemory(t *testing.T) {
	w := tinyWorld(t)
	rows, err := Fig3cd(w, []float64{600, 2400})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, large := rows[1], rows[0] // ε=2400 → few clusters; ε=600 → many
	if large.Clusters <= small.Clusters {
		t.Fatalf("cluster counts not ordered: %d vs %d", large.Clusters, small.Clusters)
	}
	if large.IndexBytes <= small.IndexBytes {
		t.Fatalf("more clusters should cost more memory: %d vs %d bytes",
			large.IndexBytes, small.IndexBytes)
	}
	if !strings.Contains(RenderFig3cd(rows), "index_MB") {
		t.Fatal("render broken")
	}
}

func TestFig4XARSearchFaster(t *testing.T) {
	w := tinyWorld(t)
	r, err := Fig4(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.XAR.Requests == 0 || r.TShare.Requests == 0 {
		t.Fatal("no requests replayed")
	}
	// The paper's headline: XAR searches much faster than T-Share.
	if sp := r.SearchSpeedup(); sp < 2 {
		t.Fatalf("XAR search speedup %.2fx; expected clear separation", sp)
	}
	// T-Share creates faster (no reachable-cluster expansion), same order.
	if r.TShare.CreateTimes.Mean() > r.XAR.CreateTimes.Mean()*5 {
		t.Fatalf("T-Share create %.3f ms vs XAR %.3f ms; expected T-Share ≤ XAR-ish",
			r.TShare.CreateTimes.Mean(), r.XAR.CreateTimes.Mean())
	}
	if !strings.Contains(r.Table(), "Fig 4a") {
		t.Fatal("table rendering broken")
	}
}

func TestFig5aXARFlatTShareGrows(t *testing.T) {
	w := tinyWorld(t)
	rows, err := Fig5a(w, []int{1, 5, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// XAR's search time is insensitive to k (same candidate retrieval).
	if rows[2].XARMeanMS > rows[0].XARMeanMS*3+0.05 {
		t.Fatalf("XAR search grew with k: %.3f → %.3f ms", rows[0].XARMeanMS, rows[2].XARMeanMS)
	}
	if !strings.Contains(RenderFig5a(rows), "k") {
		t.Fatal("render broken")
	}
}

func TestFig5bTShareGrowsFaster(t *testing.T) {
	w := tinyWorld(t)
	rows, err := Fig5b(w, []int{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	// What the figure is about, as a count (the timings it shows differ
	// by ~0.01 ms at this scale, less than scheduling noise): XAR's
	// searches issue no path query, so its per-request count is the
	// booking's alone whatever the ratio; T-Share pays per search.
	if rows[0].XARPathQueries != rows[1].XARPathQueries || rows[0].XARPathQueries > 4 {
		t.Fatalf("XAR path queries per request %.2f → %.2f over 10x ratio; searches must issue none and a booking ≤ 4",
			rows[0].XARPathQueries, rows[1].XARPathQueries)
	}
	if rows[0].TSharePathQueries <= 0 || rows[1].TSharePathQueries < 5*rows[0].TSharePathQueries {
		t.Fatalf("T-Share path queries per request %.2f → %.2f over 10x ratio; expected growth with the ratio",
			rows[0].TSharePathQueries, rows[1].TSharePathQueries)
	}
	t.Logf("total ms, ratio 1 → 10: XAR %.3f → %.3f, T-Share %.3f → %.3f",
		rows[0].XARTotalMS, rows[1].XARTotalMS, rows[0].TShareTotalMS, rows[1].TShareTotalMS)
	if !strings.Contains(RenderFig5b(rows), "ratio") {
		t.Fatal("render broken")
	}
}

func TestFig6ModeOrdering(t *testing.T) {
	w := denseWorld(t)
	r, err := Fig6(w)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, m := range r.Modes {
		byName[m.Mode] = i
	}
	taxi := r.Modes[byName["Taxi"]]
	rs := r.Modes[byName["RS"]]
	pt := r.Modes[byName["PT"]]
	rspt := r.Modes[byName["RS+PT"]]

	if taxi.Served == 0 || rs.Served == 0 || pt.Served == 0 || rspt.Served == 0 {
		t.Fatalf("empty mode: taxi=%d rs=%d pt=%d rspt=%d",
			taxi.Served, rs.Served, pt.Served, rspt.Served)
	}
	// Paper shape: taxi fastest but most cars; PT slowest, no cars;
	// RS uses fewer cars than taxi; RS+PT fewer cars than RS.
	if taxi.TravelTime.Mean() >= pt.TravelTime.Mean() {
		t.Fatalf("taxi (%.1f min) not faster than PT (%.1f min)",
			taxi.TravelTime.Mean(), pt.TravelTime.Mean())
	}
	if rs.Cars >= taxi.Cars {
		t.Fatalf("RS cars %d >= taxi cars %d", rs.Cars, taxi.Cars)
	}
	if pt.Cars != 0 {
		t.Fatal("PT must use no cars")
	}
	if rspt.Cars >= rs.Cars {
		t.Fatalf("RS+PT cars %d >= RS cars %d", rspt.Cars, rs.Cars)
	}
	if !strings.Contains(r.Table(), "Fig 6") {
		t.Fatal("table rendering broken")
	}
}

func TestAblationSortedLists(t *testing.T) {
	w := tinyWorld(t)
	row, err := AblationSortedLists(w)
	if err != nil {
		t.Fatal(err)
	}
	// Both configurations must find the same matches (correctness), the
	// linear scan being the slower path at scale.
	if row.OnMatches != row.OffMatches {
		t.Fatalf("sorted (%d) vs linear (%d) matches differ", row.OnMatches, row.OffMatches)
	}
	if !strings.Contains(RenderAblations([]AblationRow{row}), "sorted-lists") {
		t.Fatal("render broken")
	}
}

func TestAblationReachablePrecompute(t *testing.T) {
	w := tinyWorld(t)
	row, err := AblationReachablePrecompute(w)
	if err != nil {
		t.Fatal(err)
	}
	// Without the reachable-cluster expansion the index misses matches.
	if row.OffMatches >= row.OnMatches {
		t.Fatalf("ablated index found %d matches vs %d with precompute",
			row.OffMatches, row.OnMatches)
	}
}
