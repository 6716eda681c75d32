// HTTP service: run the XAR platform as the JSON service a multi-modal
// trip planner would integrate with (§IX), then drive it as a client —
// create a ride, run a batch search (the MMTP's C(k+1,2) pattern), book
// the best option and fetch the route as GeoJSON. The service runs with
// the full observability stack on: structured access logs on stderr and
// a Prometheus scrape printed at shutdown.
//
//	go run ./examples/http_service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/roadnet"
	"xar/internal/server"
	"xar/internal/telemetry"
)

func main() {
	log.SetFlags(0)

	// Stand the service up in-process on an ephemeral port, with
	// telemetry shared between the engine and the HTTP layer and a
	// structured access log so every request below is visible.
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(30, 16, 11))
	if err != nil {
		log.Fatal(err)
	}
	disc, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ecfg := core.DefaultConfig()
	ecfg.Telemetry = reg
	eng, err := core.NewEngine(disc, ecfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	accessLog := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := &http.Server{Handler: server.New(eng, core.NewSocialGraph(),
		server.WithTelemetry(reg), server.WithAccessLog(accessLog)).Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("XAR service listening on %s\n\n", base)

	// Health check.
	var health server.HealthResponse
	mustGet(base+"/v1/healthz", &health)
	fmt.Printf("healthz: %s — %d landmarks, %d clusters, ε = %.0f m\n\n",
		health.Status, health.Landmarks, health.Clusters, health.EpsilonM)

	// A driver posts a ride across the city.
	g := city.Graph
	src := server.PointJSON{Lat: g.Point(0).Lat, Lng: g.Point(0).Lng}
	last := g.Point(roadnet.NodeID(g.NumNodes() - 1))
	dst := server.PointJSON{Lat: last.Lat, Lng: last.Lng}
	var created server.CreateRideResponse
	mustPost(base+"/v1/rides", server.CreateRideRequest{
		Source: src, Dest: dst, Departure: 28800, DetourLimit: 2500,
	}, &created)
	fmt.Printf("driver created ride %d\n", created.RideID)

	// An MMTP fires a batch of segment searches for one trip plan.
	ride := eng.Ride(1)
	seg := func(a, b float64) server.SearchRequest {
		pa := g.Point(ride.Route[int(a*float64(len(ride.Route)-1))])
		pb := g.Point(ride.Route[int(b*float64(len(ride.Route)-1))])
		return server.SearchRequest{
			Source:   server.PointJSON{Lat: pa.Lat, Lng: pa.Lng},
			Dest:     server.PointJSON{Lat: pb.Lat, Lng: pb.Lng},
			Earliest: 28000, Latest: 31000, WalkLimit: 900,
		}
	}
	batch := server.BatchSearchRequest{
		Requests: []server.SearchRequest{seg(0.1, 0.5), seg(0.2, 0.8), seg(0.4, 0.9)},
		K:        3,
	}
	var results server.BatchSearchResponse
	start := time.Now()
	mustPost(base+"/v1/search/batch", batch, &results)
	fmt.Printf("batch of %d segment searches served in %v:\n",
		len(batch.Requests), time.Since(start).Round(time.Microsecond))
	var best *server.MatchJSON
	for i, r := range results.Results {
		fmt.Printf("  segment %d: %d matches\n", i+1, len(r.Matches))
		if len(r.Matches) > 0 && best == nil {
			best = &results.Results[i].Matches[0]
			batch.Requests[i].K = 0
		}
	}
	if best == nil {
		fmt.Println("no matches; try another seed")
		return
	}

	// Book the best option.
	var booking server.BookingJSON
	mustPost(base+"/v1/bookings", server.BookRequest{
		Match:   *best,
		Request: batch.Requests[0],
	}, &booking)
	fmt.Printf("\nbooked ride %d: walk %.0f m, detour %.0f m, %d shortest paths (≤ 4)\n",
		booking.RideID, booking.WalkSourceM+booking.WalkDestM,
		booking.DetourM, booking.ShortestPaths)

	// Fetch the updated route as GeoJSON for the map view.
	resp, err := http.Get(fmt.Sprintf("%s/v1/rides/%d/route", base, booking.RideID))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Features []json.RawMessage `json:"features"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("route GeoJSON: %d features (1 LineString + %d via-points)\n",
		len(doc.Features), len(doc.Features)-1)

	// Engine counters after the session, from the health check.
	var after server.HealthResponse
	mustGet(base+"/v1/healthz", &after)
	m := after.Engine
	fmt.Printf("\nservice metrics: %d searches, %d rides, %d bookings, %d shortest paths total\n",
		m.Searches, m.RidesCreated, m.Bookings, m.ShortestPaths)

	// Shutdown scrape: what a Prometheus server would have collected.
	// Keep the xar_* series (op/stage/HTTP histograms); the full dump
	// also carries go_* runtime gauges when enabled.
	resp, err = http.Get(base + "/v1/metrics/prom")
	if err != nil {
		log.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfinal /v1/metrics/prom scrape (xar_* series):")
	for _, line := range strings.Split(string(prom), "\n") {
		if strings.Contains(line, "xar_") {
			fmt.Println("  " + line)
		}
	}
}

func mustGet(url string, out interface{}) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func mustPost(url string, body, out interface{}) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}
