package experiments

import (
	"time"

	"xar/internal/sim"
	"xar/internal/stats"
	"xar/internal/workload"
)

// Fig5aRow is one point of Experiment E8: mean search time versus the
// number of requested matches k, with T-Share running in haversine-
// validation mode (the paper's alternate setting that removes the
// shortest-path cost and still shows linear growth in k).
type Fig5aRow struct {
	K            int
	XARMeanMS    float64
	TShareMeanMS float64
}

// Fig5a seeds both systems with the world's offers and measures search
// latency for k = each value in ks. To expose the k-dependence the paper
// shows (T-Share validates candidates until it has k matches), the
// candidate pool must be deep: half the stream seeds offers and the
// request windows widen to several hours, approximating the paper's 20k
// rides / 100k requests density.
func Fig5a(w *World, ks []int) ([]Fig5aRow, error) {
	split := len(w.Trips) / 2
	offers, requests := w.Trips[:split], w.Trips[split:]
	if len(requests) > 400 {
		requests = requests[:400]
	}

	xeng, err := w.NewXAREngine()
	if err != nil {
		return nil, err
	}
	xsys := &sim.XARSystem{Engine: xeng}
	teng, err := w.NewTShare(true) // haversine mode per the paper
	if err != nil {
		return nil, err
	}
	tsys := &sim.TShareSystem{Engine: teng}
	seed(xsys, offers, w.Scale)
	seed(tsys, offers, w.Scale)

	wide := w.Scale
	wide.WindowSlack = 3600

	var rows []Fig5aRow
	for _, k := range ks {
		var xs, ts stats.Sample
		for _, r := range requests {
			req := simRequest(r, wide)
			req.Earliest -= 1800
			start := time.Now()
			_, _ = xsys.Search(req, k)
			xs.AddDuration(time.Since(start))
			start = time.Now()
			_, _ = tsys.Search(req, k)
			ts.AddDuration(time.Since(start))
		}
		rows = append(rows, Fig5aRow{K: k, XARMeanMS: xs.Mean(), TShareMeanMS: ts.Mean()})
	}
	return rows, nil
}

// Fig5bRow is one point of Experiment E9: total time to serve one
// booking after r searches (the look-to-book ratio sweep).
type Fig5bRow struct {
	Ratio         int
	XARTotalMS    float64
	TShareTotalMS float64
	// Path queries issued per request (r searches + 1 booking): the
	// deterministic count behind the timings. XAR's searches issue none,
	// so its figure does not depend on r; T-Share validates every search
	// with lazy path queries, so its figure grows with r.
	XARPathQueries    float64
	TSharePathQueries float64
}

// Fig5b measures, for each look-to-book ratio r, the total time of r
// searches plus one booking on both systems, and the path queries spent.
func Fig5b(w *World, ratios []int) ([]Fig5bRow, error) {
	offers, requests := w.SplitOffersRequests()

	var rows []Fig5bRow
	for _, ratio := range ratios {
		// Fresh systems per ratio so bookings don't accumulate.
		xeng, err := w.NewXAREngine()
		if err != nil {
			return nil, err
		}
		xsys := &sim.XARSystem{Engine: xeng}
		teng, err := w.NewTShare(true)
		if err != nil {
			return nil, err
		}
		tsys := &sim.TShareSystem{Engine: teng}
		seed(xsys, offers, w.Scale)
		seed(tsys, offers, w.Scale)

		// Use a slice of requests per ratio to bound the total cost.
		probe := requests
		if len(probe) > 50 {
			probe = probe[:50]
		}
		xBefore, tBefore := xeng.Metrics().ShortestPaths, teng.PathQueries()
		xTotal := measureLookToBook(xsys, probe, ratio, w.Scale)
		tTotal := measureLookToBook(tsys, probe, ratio, w.Scale)
		n := float64(len(probe))
		rows = append(rows, Fig5bRow{
			Ratio: ratio, XARTotalMS: xTotal, TShareTotalMS: tTotal,
			XARPathQueries:    float64(xeng.Metrics().ShortestPaths-xBefore) / n,
			TSharePathQueries: float64(teng.PathQueries()-tBefore) / n,
		})
	}
	return rows, nil
}

// measureLookToBook returns the mean total time (ms) of ratio searches
// followed by one booking attempt.
func measureLookToBook(sys sim.System, requests []workload.Trip, ratio int, s Scale) float64 {
	var total stats.Sample
	for _, r := range requests {
		req := simRequest(r, s)
		start := time.Now()
		var cands []sim.Candidate
		for i := 0; i < ratio; i++ {
			cands, _ = sys.Search(req, 0)
		}
		for _, c := range cands {
			if _, err := sys.Book(c, req); err == nil {
				break
			}
		}
		total.AddDuration(time.Since(start))
	}
	return total.Mean()
}

func seed(sys sim.System, offers []workload.Trip, s Scale) {
	for _, o := range offers {
		_, _ = sys.Create(sim.Offer{
			Source: o.Pickup, Dest: o.Dropoff,
			Departure: o.RequestTime, Seats: 4, DetourLimit: s.DetourLimit,
		})
	}
}

func simRequest(r workload.Trip, s Scale) sim.Request {
	return sim.Request{
		Source: r.Pickup, Dest: r.Dropoff,
		Earliest: r.RequestTime, Latest: r.RequestTime + s.WindowSlack,
		WalkLimit: s.WalkLimit,
	}
}

// RenderFig5a renders the k sweep.
func RenderFig5a(rows []Fig5aRow) string {
	t := stats.NewTable("k", "xar_mean_ms", "tshare_mean_ms")
	for _, r := range rows {
		t.AddRow(r.K, r.XARMeanMS, r.TShareMeanMS)
	}
	return "Fig 5a — mean search time vs number of matches k (T-Share in haversine mode)\n" + t.String()
}

// RenderFig5b renders the look-to-book sweep.
func RenderFig5b(rows []Fig5bRow) string {
	t := stats.NewTable("ratio", "xar_total_ms", "tshare_total_ms", "xar_path_queries", "tshare_path_queries")
	for _, r := range rows {
		t.AddRow(r.Ratio, r.XARTotalMS, r.TShareTotalMS, r.XARPathQueries, r.TSharePathQueries)
	}
	return "Fig 5b — total time for r searches + 1 booking (look-to-book sweep)\n" + t.String()
}
