package experiments

import (
	"fmt"

	"xar/internal/sim"
	"xar/internal/stats"
)

// Fig6Result is Experiment E10: the four-mode comparison — Taxi, Ride
// Sharing (RS), Public Transport (PT), and PT combined with RS in aider
// mode — on travel time, walking time, waiting time and cars used.
type Fig6Result struct {
	Modes []sim.ModeMetrics
}

// Fig6 serves the same request stream four ways.
func Fig6(w *World) (*Fig6Result, error) {
	cfg := sim.DefaultConfig()
	cfg.WalkLimit = w.Scale.WalkLimit
	cfg.WindowSlack = w.Scale.WindowSlack
	cfg.DetourLimit = w.Scale.DetourLimit

	taxi := sim.CompareTaxi(w.City, w.Trips)

	rsEng, err := w.NewXAREngine()
	if err != nil {
		return nil, err
	}
	rs, err := sim.CompareRideShare(rsEng, w.Trips, cfg)
	if err != nil {
		return nil, err
	}

	planner, err := w.NewPlanner()
	if err != nil {
		return nil, err
	}
	pt := sim.CompareTransit(planner, w.Trips)

	rsptEng, err := w.NewXAREngine()
	if err != nil {
		return nil, err
	}
	rspt, err := sim.CompareTransitPlusRideShare(rsptEng, planner, w.Trips, cfg)
	if err != nil {
		return nil, err
	}

	return &Fig6Result{Modes: []sim.ModeMetrics{taxi, rs, pt, rspt}}, nil
}

// Table renders Figure 6.
func (r *Fig6Result) Table() string {
	t := stats.NewTable("mode", "served", "cars", "travel_min", "walk_min", "wait_min")
	for _, m := range r.Modes {
		t.AddRow(m.Mode, m.Served, m.Cars, m.TravelTime.Mean(), m.WalkTime.Mean(), m.WaitTime.Mean())
	}
	out := "Fig 6 — Taxi vs RS vs PT vs RS+PT\n" + t.String()

	byName := map[string]sim.ModeMetrics{}
	for _, m := range r.Modes {
		byName[m.Mode] = m
	}
	taxi, rs, pt, rspt := byName["Taxi"], byName["RS"], byName["PT"], byName["RS+PT"]
	if taxi.Cars > 0 && rs.Served > 0 && pt.Served > 0 && rspt.Served > 0 {
		out += fmt.Sprintf(
			"\nRS vs Taxi: %.0f%% fewer cars, %.0f%% more travel time"+
				"\nRS+PT vs PT: %.0f%% less walking, %.0f%% less travel time"+
				"\nRS+PT vs RS: %.0f%% fewer cars\n",
			100*(1-float64(rs.Cars)/float64(taxi.Cars)),
			100*(rs.TravelTime.Mean()/taxi.TravelTime.Mean()-1),
			100*(1-rspt.WalkTime.Mean()/pt.WalkTime.Mean()),
			100*(1-rspt.TravelTime.Mean()/pt.TravelTime.Mean()),
			100*(1-float64(rspt.Cars)/float64(rs.Cars)),
		)
	}
	return out
}
