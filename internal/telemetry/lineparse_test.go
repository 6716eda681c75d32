package telemetry_test

import (
	"strings"
	"testing"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/roadnet"
	"xar/internal/telemetry"
)

// TestEveryLineParses holds every sample line a scrape serves to the
// grammar /v1/metrics/prom declares, text format 0.0.4: `name{labels}
// value`, optionally followed by an integer timestamp and nothing else.
// A 0.0.4 parser rejects the whole scrape over one line that breaks it.
// The registry is fed the way the server's is: an engine with a tracer,
// whose create and search are traced operations, plus a label value
// that needs every escape.
func TestEveryLineParses(t *testing.T) {
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(10, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Telemetry = reg
	cfg.Tracer = telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1})
	eng, err := core.NewEngine(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g := city.Graph
	src, dst := g.Point(0), g.Point(roadnet.NodeID(g.NumNodes()-1))
	if _, err := eng.CreateRide(core.RideOffer{Source: src, Dest: dst, Departure: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(core.Request{Source: src, Dest: dst, EarliestDeparture: 900, LatestDeparture: 1800, WalkLimit: 500}); err != nil {
		t.Fatal(err)
	}
	reg.Counter("xar_escape_test_total", "a counter", telemetry.L("weird", `a"b\c`+"\nd")).Inc()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	searches := ""
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		telemetry.CheckSampleLine(t, line)
		if v, ok := strings.CutPrefix(line, `xar_op_duration_seconds_count{op="search"} `); ok {
			searches = v
		}
	}
	if searches != "1" {
		t.Fatalf("search histogram count = %q, want 1: the traced search was not observed", searches)
	}
}
