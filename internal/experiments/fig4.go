package experiments

import (
	"fmt"
	"math"
	"strconv"

	"xar/internal/sim"
	"xar/internal/stats"
)

// Fig4Result is Experiments E5–E7: per-operation latency percentiles for
// XAR and T-Share under the same workload (the paper's 20k rides / 100k
// requests subset with pickups 6am–12pm).
type Fig4Result struct {
	XAR    *sim.Result
	TShare *sim.Result
}

// Fig4 replays the same trip stream through both systems with the §X-A2
// protocol and full-match searches (T-Share modified to return all
// matches, expansion capped at 80 grids ≈ 4 km).
func Fig4(w *World) (*Fig4Result, error) {
	cfg := sim.DefaultConfig()
	cfg.WalkLimit = w.Scale.WalkLimit
	cfg.WindowSlack = w.Scale.WindowSlack
	cfg.DetourLimit = w.Scale.DetourLimit

	xeng, err := w.NewXAREngine()
	if err != nil {
		return nil, err
	}
	xres, err := sim.Run(&sim.XARSystem{Engine: xeng}, w.Trips, cfg)
	if err != nil {
		return nil, err
	}

	teng, err := w.NewTShare(false)
	if err != nil {
		return nil, err
	}
	tres, err := sim.Run(&sim.TShareSystem{Engine: teng}, w.Trips, cfg)
	if err != nil {
		return nil, err
	}
	return &Fig4Result{XAR: xres, TShare: tres}, nil
}

// Table renders the three sub-figures (4a search, 4b create, 4c book).
func (r *Fig4Result) Table() string {
	render := func(title string, pick func(*sim.Result) *stats.Sample) string {
		t := stats.NewTable("system", "n", "mean_us", "p50_us", "p95_us", "p99_us", "max_us")
		for _, res := range []*sim.Result{r.XAR, r.TShare} {
			s := pick(res)
			t.AddRow(res.SystemName, s.N(), micros(s.Mean()), micros(s.Percentile(50)), micros(s.Percentile(95)), micros(s.Percentile(99)), micros(s.Max()))
		}
		return title + "\n" + t.String()
	}
	out := render("Fig 4a — time to search all possible matches", func(r *sim.Result) *stats.Sample { return &r.SearchTimes })
	out += "\n" + render("Fig 4b — time to create a ride", func(r *sim.Result) *stats.Sample { return &r.CreateTimes })
	out += "\n" + render("Fig 4c — time to book a ride", func(r *sim.Result) *stats.Sample { return &r.BookTimes })
	out += fmt.Sprintf("\nmatch rate: XAR %.1f%% (%d rides), T-Share %.1f%% (%d taxis)\n",
		100*r.XAR.MatchRate(), r.XAR.Created, 100*r.TShare.MatchRate(), r.TShare.Created)
	return out
}

// micros renders a latency the replay measured in milliseconds as
// microseconds to three significant figures (0.0114 ms is "11.4", 1.2345
// ms "1230"): an operation of a few microseconds keeps three figures,
// where milliseconds to three decimals left it one or two. NaN, an empty
// sample's, is "-".
func micros(ms float64) string {
	us := ms * 1000
	switch {
	case math.IsNaN(us):
		return "-"
	case us == 0 || math.IsInf(us, 0):
		return strconv.FormatFloat(us, 'f', -1, 64)
	}
	e := int(math.Floor(math.Log10(math.Abs(us))))
	if e >= 2 {
		p := math.Pow(10, float64(e-2))
		return strconv.FormatFloat(math.Round(us/p)*p, 'f', 0, 64)
	}
	return strconv.FormatFloat(us, 'f', 2-e, 64)
}

// SearchSpeedup reports how many times faster XAR's mean search is.
func (r *Fig4Result) SearchSpeedup() float64 {
	if r.XAR.SearchTimes.Mean() == 0 {
		return 0
	}
	return r.TShare.SearchTimes.Mean() / r.XAR.SearchTimes.Mean()
}
