// Package experiments implements the paper's evaluation (§X): one
// function per table/figure, each returning printable rows so the
// cmd/xarbench binary and the root-level benchmarks share a single
// implementation. See DESIGN.md for the experiment index (E1–E10) and
// EXPERIMENTS.md for measured-vs-paper results.
package experiments

import (
	"fmt"
	"time"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/journal"
	"xar/internal/memsize"
	"xar/internal/mmtp"
	"xar/internal/quality"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
	"xar/internal/transit"
	"xar/internal/tshare"
	"xar/internal/workload"
)

// Scale parameterizes an experiment world. The paper's full scale
// (16,000 landmarks, 350,000 requests) is reachable by raising these
// numbers; the defaults run the whole suite in minutes.
type Scale struct {
	CityRows, CityCols int
	Seed               int64
	Requests           int
	// OfferFraction seeds this fraction of trips as pre-existing ride
	// offers for latency experiments (paper: 20k rides / 100k requests).
	OfferFraction float64
	// Epsilon is the paper's ε (= 4δ); default 1 km as in §X-A3.
	Epsilon float64
	// WalkLimit/WindowSlack/DetourLimit mirror sim.Config.
	WalkLimit   float64
	WindowSlack float64
	DetourLimit float64
}

// DefaultScale returns the reproduction's standard scale.
func DefaultScale() Scale {
	return Scale{
		CityRows:      40,
		CityCols:      22,
		Seed:          42,
		Requests:      4000,
		OfferFraction: 0.2,
		Epsilon:       1000,
		WalkLimit:     1000,
		WindowSlack:   900,
		DetourLimit:   2000,
	}
}

// World bundles the substrates an experiment needs.
type World struct {
	Scale Scale
	City  *roadnet.City
	Disc  *discretize.Discretization
	Trips []workload.Trip
	// Telemetry, when non-nil, is handed to the sim replays so the
	// figure harness records into the same latency histograms a live
	// xarserver exposes (cmd/xarbench -prom wires this).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records request-scoped span trees for the
	// replayed operations (cmd/xarsim -trace-out / cmd/xarbench
	// -trace-out wire this to dump the slowest traces).
	Tracer *telemetry.Tracer
	// Journal, when non-nil, records ride-lifecycle events during the
	// replay (cmd/xarsim -audit / cmd/xarbench -audit wire this so the
	// post-replay audit can check journal causality).
	Journal *journal.Journal
	// Quality, when non-nil, collects the match-quality funnel and
	// approximation-gap histograms during the replay (cmd/xarsim
	// -quality / cmd/xarload wire this for their post-run summaries).
	Quality *quality.Collector
	// ShadowSampleRate, when > 0 alongside Quality, runs the shadow
	// counterfactual matcher at that 1-in-N sample rate.
	ShadowSampleRate int
	// Memory, when non-nil, turns on per-component memory accounting in
	// the engines built over this world (cmd/xarload -mem-sweep /
	// cmd/xarsim wire this for their memory summaries).
	Memory *memsize.Registry
	// MemSweepInterval starts the engine's background sweep worker on
	// that cadence (requires Memory; 0 → on-demand sweeps only).
	MemSweepInterval time.Duration
}

// BuildWorld generates the city, discretization (ε = Scale.Epsilon) and
// trip stream.
func BuildWorld(s Scale) (*World, error) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(s.CityRows, s.CityCols, s.Seed))
	if err != nil {
		return nil, err
	}
	dcfg := discretize.DefaultConfig()
	dcfg.Delta = s.Epsilon / 4
	disc, err := discretize.Build(city, dcfg)
	if err != nil {
		return nil, err
	}
	wcfg := workload.DefaultConfig(s.Requests, s.Seed+1)
	wcfg.StartHour = 6
	wcfg.EndHour = 12 // the paper's Figure 4 subset uses 6am–12pm pickups
	wcfg.MaxTripDist = maxTripDist(city)
	trips, err := workload.Generate(city, wcfg)
	if err != nil {
		return nil, err
	}
	return &World{Scale: s, City: city, Disc: disc, Trips: trips}, nil
}

func maxTripDist(city *roadnet.City) float64 {
	box := city.Graph.BBox()
	d := box.HeightMeters()
	if w := box.WidthMeters(); w > d {
		d = w
	}
	if d > 12000 {
		d = 12000
	}
	return d * 0.9
}

// NewXAREngine builds a fresh XAR engine over the world. When the world
// carries a telemetry registry the engine records into it directly —
// ops and the per-stage search breakdown, unsampled (rate 1) so the
// figure replays trace every search.
func (w *World) NewXAREngine() (*core.Engine, error) {
	cfg := core.DefaultConfig()
	cfg.DefaultDetourLimit = w.Scale.DetourLimit
	if w.Telemetry != nil {
		cfg.Telemetry = w.Telemetry
		cfg.SearchSampleRate = 1
	}
	cfg.Tracer = w.Tracer
	cfg.Journal = w.Journal
	cfg.Quality = w.Quality
	if w.Quality != nil {
		cfg.ShadowSampleRate = w.ShadowSampleRate
	}
	cfg.Memory = w.Memory
	if w.Memory != nil {
		cfg.MemSweepInterval = w.MemSweepInterval
	}
	return core.NewEngine(w.Disc, cfg)
}

// NewTShare builds a fresh T-Share baseline over the world. Its grid
// cell matches the XAR cluster scale (ε), per §X-B2.
func (w *World) NewTShare(haversine bool) (*tshare.Engine, error) {
	cfg := tshare.DefaultConfig()
	cfg.GridCellSize = w.Scale.Epsilon
	cfg.HaversineValidation = haversine
	cfg.DefaultDetourLimit = w.Scale.DetourLimit
	return tshare.New(w.City, cfg)
}

// NewPlanner builds the transit network and multi-modal planner.
func (w *World) NewPlanner() (*mmtp.Planner, error) {
	net, err := transit.Generate(w.City, transit.DefaultGenConfig())
	if err != nil {
		return nil, err
	}
	return mmtp.NewPlanner(net, mmtp.DefaultConfig())
}

// SplitOffersRequests partitions the trip stream: the first
// OfferFraction of trips seed rides, the rest are requests — the paper's
// "20,000 rides and 100,000 requests" setup for Figure 4.
func (w *World) SplitOffersRequests() (offers, requests []workload.Trip) {
	n := int(float64(len(w.Trips)) * w.Scale.OfferFraction)
	if n < 1 {
		n = 1
	}
	if n >= len(w.Trips) {
		n = len(w.Trips) - 1
	}
	return w.Trips[:n], w.Trips[n:]
}

// Row is one printable output line of an experiment.
type Row struct {
	Label  string
	Values map[string]float64
}

func (r Row) String() string {
	return fmt.Sprintf("%s %v", r.Label, r.Values)
}
