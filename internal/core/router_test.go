package core

import (
	"testing"
	"time"

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

// TestRouterResolution covers the Config.Router decision table:
// explicit values, auto-selection (ALT, or CH when a hierarchy is
// given; UseALTPaths decides nothing), the CH-budget fallback to ALT,
// and rejection of unknown routers.
func TestRouterResolution(t *testing.T) {
	d := routerTestDisc(t)
	ch, err := roadnet.BuildCH(d.City().Graph, roadnet.CHConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"default is alt", func(c *Config) {}, RouterALT},
		{"compat flag has no effect", func(c *Config) { c.UseALTPaths = true }, RouterALT},
		{"explicit astar wins over compat flag", func(c *Config) { c.UseALTPaths = true; c.Router = RouterAStar }, RouterAStar},
		{"prebuilt CH implies ch", func(c *Config) { c.CH = ch }, RouterCH},
		{"explicit ch builds in-process", func(c *Config) { c.Router = RouterCH }, RouterCH},
		{"ch budget fallback to alt", func(c *Config) { c.Router = RouterCH; c.CHBudget = time.Nanosecond }, RouterALT},
		{"prebuilt CH skips the budget", func(c *Config) { c.CH = ch; c.CHBudget = time.Nanosecond }, RouterCH},
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
	cfg := DefaultConfig()
	cfg.Router = "dijkstra-on-a-gpu"
	if _, err := NewEngine(d, cfg); err == nil {
		t.Fatal("unknown Router must be rejected")
	}
}

// TestRouterCHEquivalence runs the same offers and searches through an
// A*-routed and a CH-routed engine and requires identical ride routes
// and search outcomes — the engine-level form of the exact-distance
// property.
func TestRouterCHEquivalence(t *testing.T) {
	d := routerTestDisc(t)
	cfg := DefaultConfig()
	cfg.Router = RouterAStar
	ref, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = RouterCH
	che, err := NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := d.City().Graph
	n := g.NumNodes()
	for trial := 0; trial < 40; trial++ {
		src := g.Point(roadnet.NodeID((trial * 131) % n))
		dst := g.Point(roadnet.NodeID((trial*257 + n/2) % n))
		idRef, errRef := ref.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000})
		idCH, errCH := che.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000})
		if (errRef == nil) != (errCH == nil) {
			t.Fatalf("trial %d: create diverged (%v vs %v)", trial, errRef, errCH)
		}
		if errRef != nil {
			continue
		}
		a, b := ref.Ride(idRef), che.Ride(idCH)
		if len(a.Route) != len(b.Route) {
			t.Fatalf("trial %d: route lengths differ (%d vs %d)", trial, len(a.Route), len(b.Route))
		}
		if a.BaseRouteLen != b.BaseRouteLen {
			t.Fatalf("trial %d: route distance differs (%v vs %v)", trial, a.BaseRouteLen, b.BaseRouteLen)
		}
	}
}

// TestRouteQueriesCounter verifies satellite telemetry: the per-algo
// query counter advances with each shortest-path call.
func TestRouteQueriesCounter(t *testing.T) {
	d := routerTestDisc(t)
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Router = RouterCH
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
		telemetry.L("algo", RouterCH))
	if c.Value() == 0 {
		t.Fatal("xar_route_queries_total{algo=ch} did not advance after a create")
	}
}
