package experiments

import (
	"fmt"
	"time"

	"xar/internal/discretize"
	"xar/internal/memsize"
	"xar/internal/sim"
	"xar/internal/stats"
)

// Fig3aResult is Experiment E1: the empirical CDF of the detour
// approximation error against the ε guarantee. The paper reports 98% of
// matches under ε, 99.9% under 2ε, and a hard 4ε worst case.
type Fig3aResult struct {
	Epsilon     float64
	Bookings    int
	FracUnder1E float64
	FracUnder2E float64
	FracUnder4E float64
	MaxError    float64
	Errors      *stats.Sample
}

// Fig3a replays the full stream through XAR (search → least-walk book →
// else create) and measures each booking's additive approximation error.
func Fig3a(w *World) (*Fig3aResult, error) {
	eng, err := w.NewXAREngine()
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	cfg.WalkLimit = w.Scale.WalkLimit
	cfg.WindowSlack = w.Scale.WindowSlack
	cfg.DetourLimit = w.Scale.DetourLimit
	res, err := sim.Run(&sim.XARSystem{Engine: eng}, w.Trips, cfg)
	if err != nil {
		return nil, err
	}
	eps := w.Disc.Epsilon()
	out := &Fig3aResult{
		Epsilon:  eps,
		Bookings: res.ApproxErrors.N(),
		Errors:   &res.ApproxErrors,
	}
	if out.Bookings > 0 {
		out.FracUnder1E = res.ApproxErrors.CDF(eps)
		out.FracUnder2E = res.ApproxErrors.CDF(2 * eps)
		out.FracUnder4E = res.ApproxErrors.CDF(4 * eps)
		out.MaxError = res.ApproxErrors.Max()
	}
	return out, nil
}

// Table renders the result in the shape of Figure 3a.
func (r *Fig3aResult) Table() string {
	t := stats.NewTable("bound", "fraction_of_matches")
	t.AddRow("<= eps", r.FracUnder1E)
	t.AddRow("<= 2*eps", r.FracUnder2E)
	t.AddRow("<= 4*eps", r.FracUnder4E)
	return fmt.Sprintf("Fig 3a — detour approximation error CDF (ε=%.0f m, %d bookings, max error %.1f m)\n%s",
		r.Epsilon, r.Bookings, r.MaxError, t.String())
}

// Fig3bRow is one sweep point of Experiment E2: ε versus cluster count.
type Fig3bRow struct {
	Epsilon         float64
	Clusters        int
	MeasuredEpsilon float64
}

// Fig3b sweeps ε and reports the resulting cluster counts — the inverse
// relation of Figure 3b.
func Fig3b(w *World, epsilons []float64) ([]Fig3bRow, error) {
	var rows []Fig3bRow
	for _, eps := range epsilons {
		dcfg := discretize.DefaultConfig()
		dcfg.Delta = eps / 4
		d, err := discretize.Build(w.City, dcfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3bRow{
			Epsilon:         eps,
			Clusters:        d.NumClusters(),
			MeasuredEpsilon: d.Epsilon(),
		})
	}
	return rows, nil
}

// Fig3cdRow is one sweep point of Experiments E3+E4: cluster count versus
// index memory and search latency.
type Fig3cdRow struct {
	Epsilon      float64
	Clusters     int
	IndexBytes   uint64
	IndexMB      float64
	SearchMeanMS float64
	SearchP95MS  float64
	// Where a ride's bytes go (Figure 3c's figure per ride, without the
	// road graph and the discretization the index points at): its support
	// records, its cluster directory, its posting-list entries, and the
	// rest — route nodes and ETAs, via-points, pass-through runs, the
	// ride itself and its places in the slot table and the ID map.
	Rides                                              int
	SupportsPerRide, DirectoryPerRide, PostingsPerRide float64
	RestPerRide                                        float64
}

// Record sizes of internal/index (its TestSupportRecordSize and
// TestPostingBytesPerEntry pin them): a support record (an 8-byte detour
// and a 4-byte run, in two columns), a directory key, a posting-list
// entry (an 8-byte ETA and a 4-byte slot, in two columns).
const (
	supportBytes   = 12
	directoryBytes = 8
	postingBytes   = 12
)

// Fig3cd sweeps ε, loads each configuration with the world's ride
// offers, and measures the in-memory index size (Figure 3c) and the ride
// search latency (Figure 3d).
func Fig3cd(w *World, epsilons []float64) ([]Fig3cdRow, error) {
	offers, requests := w.SplitOffersRequests()
	var rows []Fig3cdRow
	for _, eps := range epsilons {
		dcfg := discretize.DefaultConfig()
		dcfg.Delta = eps / 4
		d, err := discretize.Build(w.City, dcfg)
		if err != nil {
			return nil, err
		}
		scale := w.Scale
		scale.Epsilon = eps
		world := &World{Scale: scale, City: w.City, Disc: d, Trips: w.Trips}
		eng, err := world.NewXAREngine()
		if err != nil {
			return nil, err
		}
		sys := &sim.XARSystem{Engine: eng}
		for _, o := range offers {
			_, _ = sys.Create(sim.Offer{
				Source: o.Pickup, Dest: o.Dropoff,
				Departure: o.RequestTime, Seats: 4, DetourLimit: scale.DetourLimit,
			})
		}
		var lat stats.Sample
		for _, r := range requests {
			req := sim.Request{
				Source: r.Pickup, Dest: r.Dropoff,
				Earliest: r.RequestTime, Latest: r.RequestTime + scale.WindowSlack,
				WalkLimit: scale.WalkLimit,
			}
			start := time.Now()
			_, _ = sys.Search(req, 0)
			lat.AddDuration(time.Since(start))
		}
		bytes := memsize.Of(eng.Index())
		row := Fig3cdRow{
			Epsilon:      eps,
			Clusters:     d.NumClusters(),
			IndexBytes:   bytes,
			IndexMB:      float64(bytes) / (1 << 20),
			SearchMeanMS: lat.Mean(),
			SearchP95MS:  lat.Percentile(95),
		}
		// The split: one directory key per (ride, supported cluster) —
		// which is one posting entry — plus a sentinel per listed ride;
		// the rest is what the rides own beyond those three.
		if st := eng.Index().Stats(); st.Rides > 0 {
			rides := float64(st.Rides)
			row.Rides = st.Rides
			row.SupportsPerRide = supportBytes * float64(st.SupportRecords) / rides
			row.DirectoryPerRide = directoryBytes * float64(st.ListEntries+st.Rides-st.FullRides) / rides
			row.PostingsPerRide = postingBytes * float64(st.ListEntries) / rides
			owned := float64(bytes - memsize.Of(d)) // d holds the road graph too
			row.RestPerRide = owned/rides - row.SupportsPerRide - row.DirectoryPerRide - row.PostingsPerRide
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig3b renders Figure 3b rows.
func RenderFig3b(rows []Fig3bRow) string {
	t := stats.NewTable("eps_m", "clusters", "measured_eps_m")
	for _, r := range rows {
		t.AddRow(r.Epsilon, r.Clusters, r.MeasuredEpsilon)
	}
	return "Fig 3b — number of clusters vs ε\n" + t.String()
}

// RenderFig3cd renders Figure 3c/3d rows.
func RenderFig3cd(rows []Fig3cdRow) string {
	t := stats.NewTable("eps_m", "clusters", "index_MB", "search_mean_ms", "search_p95_ms",
		"rides", "B/ride_supports", "B/ride_directory", "B/ride_postings", "B/ride_rest")
	for _, r := range rows {
		t.AddRow(r.Epsilon, r.Clusters, r.IndexMB, r.SearchMeanMS, r.SearchP95MS,
			r.Rides, r.SupportsPerRide, r.DirectoryPerRide, r.PostingsPerRide, r.RestPerRide)
	}
	return "Fig 3c/3d — index memory and search time vs cluster count\n" + t.String()
}
