// Package tshare implements the T-Share baseline (Ma, Zheng, Wolfson,
// ICDE 2013) the XAR paper benchmarks against, following the paper's
// experimental setup (§X-B2):
//
//   - the city is partitioned into a uniform grid (the paper uses 1 km
//     cells, "equivalent to the cluster size of XAR");
//   - each cell keeps a temporally-ordered list of the taxis expected to
//     arrive in it;
//   - a search expands grid rings around the origin and the destination
//     in increasing distance order — capped at MaxExpandGrids cells
//     (the paper uses 80 ≈ 4 km) — and validates every candidate taxi
//     with *lazy shortest-path computation*: the insertion detour is
//     computed with real shortest paths at search time;
//   - the original system stops at the first match; per the paper's
//     modification, the search continues until k matches are found (or
//     the cap is reached), k = all by default.
//
// The alternate Figure 5a setting — haversine distances instead of
// shortest paths during validation — is Config.HaversineValidation.
//
// Create and book are cheaper than XAR's (no reachable-cluster
// expansion), which reproduces the paper's Figure 4b/4c ordering.
package tshare

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"xar/internal/geo"
	"xar/internal/grid"
	"xar/internal/roadnet"
)

// Errors returned by the engine.
var (
	ErrUnknownTaxi = errors.New("tshare: unknown taxi")
	ErrTaxiFull    = errors.New("tshare: taxi has no available seats")
	ErrInfeasible  = errors.New("tshare: match no longer feasible")
	ErrUnreachable = errors.New("tshare: no route between endpoints")
	ErrOutOfRegion = errors.New("tshare: location outside the gridded region")
)

// Config tunes the baseline.
type Config struct {
	// GridCellSize is the cell edge in meters (paper: 1000 m).
	GridCellSize float64
	// MaxExpandGrids caps the number of cells visited per search side
	// (paper: 80 ≈ a 4 km detour bound).
	MaxExpandGrids int
	// HaversineValidation replaces shortest-path detour validation with
	// haversine estimates (the Figure 5a alternate setting).
	HaversineValidation bool
	// DefaultDetourLimit applies to offers that leave DetourLimit zero.
	DefaultDetourLimit float64
}

// defaultSeats applies to offers that leave Seats zero: the XAR engine's
// default of 4 seats.
const defaultSeats = 4

// destWindowSlack (seconds) widens the destination-side time window, as
// the XAR engine's search does.
const destWindowSlack = 3600.0

// DefaultConfig returns the paper's benchmark configuration.
func DefaultConfig() Config {
	return Config{
		GridCellSize:       1000,
		MaxExpandGrids:     80,
		DefaultDetourLimit: 2000,
	}
}

// TaxiID identifies a taxi (ride offer) in the system.
type TaxiID int64

// Via is a mandatory stop of a taxi's schedule.
type Via struct {
	RouteIdx int
	Node     roadnet.NodeID
	ETA      float64
}

// Taxi is one ride offer.
type Taxi struct {
	ID          TaxiID
	Route       []roadnet.NodeID
	RouteETA    []float64
	Via         []Via
	SeatsAvail  int
	DetourLimit float64 // remaining, meters
	Progress    int

	// rev increments whenever the schedule changes (booking, tracking),
	// so a booking can skip re-validation when its match is still
	// current — T-Share books at the insertion position the search found.
	rev   uint64
	cells map[grid.ID]struct{} // cells currently listing this taxi
}

// Offer creates a taxi.
type Offer struct {
	Source, Dest geo.Point
	Departure    float64
	Seats        int
	DetourLimit  float64
}

// Request is a ride request (same semantics as the XAR engine's).
type Request struct {
	Source, Dest                       geo.Point
	EarliestDeparture, LatestDeparture float64
	WalkLimit                          float64 // unused by T-Share matching; kept for API parity
}

// Match is a validated candidate.
type Match struct {
	Taxi       TaxiID
	PickupETA  float64
	Detour     float64 // exact (or haversine-estimated) insertion detour
	pickupSeg  int
	dropoffSeg int
	pickupNode roadnet.NodeID
	dropNode   roadnet.NodeID
	rev        uint64 // schedule revision the validation saw
}

type cellEntry struct {
	taxi TaxiID
	eta  float64
}

// Engine is the T-Share baseline system. Thread-safe with a single RW
// lock, mirroring the XAR engine.
type Engine struct {
	cfg  Config
	city *roadnet.City
	gs   *grid.System

	mu       sync.RWMutex
	taxis    map[TaxiID]*Taxi
	cells    map[grid.ID][]cellEntry // sorted by eta
	searcher *roadnet.ALTSearcher
	nextID   TaxiID

	// pathQueries counts single-pair path queries: the shortest paths of
	// Create and Book, and every call of the validation's distance
	// oracle (dist) — a real shortest path, or its haversine stand-in.
	pathQueries uint64
}

// New builds an engine over a city.
func New(city *roadnet.City, cfg Config) (*Engine, error) {
	if cfg.GridCellSize <= 0 {
		return nil, fmt.Errorf("tshare: GridCellSize must be positive")
	}
	if cfg.MaxExpandGrids <= 0 {
		return nil, fmt.Errorf("tshare: MaxExpandGrids must be positive")
	}
	gs, err := grid.NewSystem(city.Graph.BBox().Pad(cfg.GridCellSize), cfg.GridCellSize)
	if err != nil {
		return nil, err
	}
	// The router XAR defaults to, so that Fig 4b/4c compare two indexes
	// and not two routers.
	alt, err := roadnet.NewALT(city.Graph, 0)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:      cfg,
		city:     city,
		gs:       gs,
		taxis:    make(map[TaxiID]*Taxi),
		cells:    make(map[grid.ID][]cellEntry),
		searcher: alt.NewSearcher(),
	}, nil
}

// PathQueries returns how many single-pair path queries the engine has
// issued — the work the paper's Figure 5b is about: T-Share pays it on
// every search (lazy shortest paths during validation, answered by
// haversine under HaversineValidation), XAR only when it books.
func (e *Engine) PathQueries() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.pathQueries
}

// NumTaxis returns the number of active taxis.
func (e *Engine) NumTaxis() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.taxis)
}

// Taxi returns a taxi by ID (nil if unknown).
func (e *Engine) Taxi(id TaxiID) *Taxi {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.taxis[id]
}

// Create registers a new taxi: one shortest path, per-node ETAs, and
// registration in the grid cells its route crosses.
func (e *Engine) Create(offer Offer) (TaxiID, error) {
	seats := offer.Seats
	if seats == 0 {
		seats = defaultSeats
	}
	if seats < 2 {
		return 0, fmt.Errorf("tshare: offer needs capacity >= 2, got %d", seats)
	}
	detour := offer.DetourLimit
	if detour == 0 {
		detour = e.cfg.DefaultDetourLimit
	}
	if detour < 0 {
		return 0, fmt.Errorf("tshare: negative detour limit")
	}

	e.mu.Lock()
	defer e.mu.Unlock()

	src, _ := e.city.SnapToNode(offer.Source)
	dst, _ := e.city.SnapToNode(offer.Dest)
	if src == roadnet.InvalidNode || dst == roadnet.InvalidNode {
		return 0, ErrOutOfRegion
	}
	if src == dst {
		return 0, fmt.Errorf("tshare: endpoints snap to the same node")
	}
	e.pathQueries++
	res := e.searcher.ShortestPath(src, dst)
	if !res.Reachable() {
		return 0, ErrUnreachable
	}
	walk, err := e.city.Graph.WalkRoute(res.Path, offer.Departure, roadnet.Splice{})
	if err != nil {
		return 0, fmt.Errorf("tshare: offer route invalid: %w", err)
	}
	e.nextID++
	t := &Taxi{
		ID:          e.nextID,
		Route:       res.Path,
		SeatsAvail:  seats - 1,
		DetourLimit: detour,
		cells:       make(map[grid.ID]struct{}),
	}
	t.RouteETA = walk.ETA
	t.Via = []Via{
		{RouteIdx: 0, Node: src, ETA: t.RouteETA[0]},
		{RouteIdx: len(res.Path) - 1, Node: dst, ETA: t.RouteETA[len(res.Path)-1]},
	}
	e.register(t)
	e.taxis[t.ID] = t
	return t.ID, nil
}

// register adds the taxi to the cell lists of every cell on its
// (remaining) route with the taxi's first arrival time in that cell.
func (e *Engine) register(t *Taxi) {
	g := e.city.Graph
	for i := t.Progress; i < len(t.Route); i++ {
		c := e.gs.At(g.Point(t.Route[i]))
		if c == grid.Invalid {
			continue
		}
		if _, done := t.cells[c]; done {
			continue
		}
		t.cells[c] = struct{}{}
		e.cellAdd(c, t.ID, t.RouteETA[i])
	}
}

func (e *Engine) cellAdd(c grid.ID, id TaxiID, eta float64) {
	list := e.cells[c]
	i := sort.Search(len(list), func(i int) bool {
		if list[i].eta != eta {
			return list[i].eta > eta
		}
		return list[i].taxi >= id
	})
	list = append(list, cellEntry{})
	copy(list[i+1:], list[i:])
	list[i] = cellEntry{taxi: id, eta: eta}
	e.cells[c] = list
}

func (e *Engine) cellRemove(c grid.ID, id TaxiID) {
	list := e.cells[c]
	for i := range list {
		if list[i].taxi == id {
			e.cells[c] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// unregister removes the taxi from every cell listing it.
func (e *Engine) unregister(t *Taxi) {
	for c := range t.cells {
		e.cellRemove(c, t.ID)
	}
	t.cells = make(map[grid.ID]struct{})
}

// Remove deletes a taxi from the system.
func (e *Engine) Remove(id TaxiID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.taxis[id]
	if !ok {
		return false
	}
	e.unregister(t)
	delete(e.taxis, id)
	return true
}
