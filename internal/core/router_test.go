package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"xar/internal/discretize"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

func routerTestDisc(t *testing.T) *discretize.Discretization {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(16, 10, 7))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// astarEngine builds an engine whose shortest paths run on plain A*
// (roadnet.Searcher) instead of ALT: the oracle the engine's router is
// tested against. Both pool and constructor are swapped, so no ALT
// searcher can serve it.
func astarEngine(t *testing.T, d *discretize.Discretization) *Engine {
	t.Helper()
	e, err := NewEngine(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := d.City().Graph
	e.newFinder = func() pathFinder { return roadnet.NewSearcher(g) }
	e.finders = sync.Pool{New: func() any { return e.newFinder() }}
	f := e.finder()
	defer e.release(f)
	if _, ok := f.(*roadnet.Searcher); !ok {
		t.Fatal("the oracle engine does not search with plain A*")
	}
	return e
}

// TestRouterResolution: every engine routes with ALT, and UseALTPaths
// decides nothing.
func TestRouterResolution(t *testing.T) {
	d := routerTestDisc(t)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"default is alt", func(c *Config) {}, RouterALT},
		{"compat flag has no effect", func(c *Config) { c.UseALTPaths = true }, RouterALT},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			e, err := NewEngine(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if e.Router() != tc.want {
				t.Fatalf("Router() = %q, want %q", e.Router(), tc.want)
			}
			if got := e.ConfigSummary()["router"]; got != tc.want {
				t.Fatalf("ConfigSummary router = %v, want %q", got, tc.want)
			}
		})
	}
}

// TestRouteQueriesCounter verifies satellite telemetry: the per-algo
// query counter advances with each shortest-path call.
func TestRouteQueriesCounter(t *testing.T) {
	d := routerTestDisc(t)
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Telemetry = reg
	e, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := d.City().Graph
	if _, err := e.CreateRide(RideOffer{
		Source: g.Point(0), Dest: g.Point(roadnet.NodeID(g.NumNodes() - 1)), Departure: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	c := reg.Counter("xar_route_queries_total",
		"Shortest-path queries served, by routing algorithm.",
		telemetry.L("algo", RouterALT))
	if c.Value() == 0 {
		t.Fatal("xar_route_queries_total{algo=alt} did not advance after a create")
	}
}

// NewEngine builds the index's neighbour table on every worker and the
// ALT tables beside it: both must come out the same at any GOMAXPROCS.
// reflect.DeepEqual walks the unexported tables (the index's neighbour
// rows; through a searcher, the ALT landmark table and adjacency).
func TestNewEngineTablesIndependentOfGOMAXPROCS(t *testing.T) {
	d := routerTestDisc(t)
	build := func(procs int) *Engine {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e, err := NewEngine(d, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	one, four := build(1), build(4)
	if !reflect.DeepEqual(one.ix.Ix, four.ix.Ix) {
		t.Fatal("index (neighbour table) differs between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(one.newFinder(), four.newFinder()) {
		t.Fatal("ALT tables differ between GOMAXPROCS 1 and 4")
	}
}
