// MMTP integration: plan a commute on public transport with the
// multi-modal trip planner, then improve it with XAR ride sharing using
// the paper's two integration modes (§IX) — Aider (fix infeasible
// segments) and Enhancer (replace segment combinations to cut hops).
//
//	go run ./examples/mmtp_integration
package main

import (
	"fmt"
	"log"

	"xar/internal/core"
	"xar/internal/discretize"
	"xar/internal/geo"
	"xar/internal/mmtp"
	"xar/internal/roadnet"
	"xar/internal/transit"
	"xar/internal/workload"
)

func main() {
	log.SetFlags(0)

	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(40, 20, 7))
	if err != nil {
		log.Fatal(err)
	}
	net, err := transit.Generate(city)
	if err != nil {
		log.Fatal(err)
	}
	planner := mmtp.NewPlanner(net)
	fmt.Printf("transit network: %d stops, %d route directions\n", len(net.Stops), len(net.Routes))

	// Stand up XAR and seed it with morning ride offers so the planner
	// has a supply to draw on.
	disc, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(disc, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	wcfg := workload.DefaultConfig(1500, 8)
	wcfg.StartHour = 7.5
	wcfg.EndHour = 9
	offers, err := workload.Generate(city, wcfg)
	if err != nil {
		log.Fatal(err)
	}
	seeded := 0
	for _, o := range offers {
		if _, err := eng.CreateRide(core.RideOffer{
			Source: o.Pickup, Dest: o.Dropoff,
			Departure: o.RequestTime, DetourLimit: 3000,
		}); err == nil {
			seeded++
		}
	}
	fmt.Printf("XAR fleet seeded with %d ride offers\n\n", seeded)

	// A commuter crossing the city at 8:00.
	box := city.Graph.BBox()
	src := geo.Point{Lat: box.MinLat + 0.05*(box.MaxLat-box.MinLat), Lng: box.MinLng + 0.1*(box.MaxLng-box.MinLng)}
	dst := geo.Point{Lat: box.MinLat + 0.95*(box.MaxLat-box.MinLat), Lng: box.MinLng + 0.9*(box.MaxLng-box.MinLng)}

	it, err := planner.Plan(src, dst, 8*3600)
	if err != nil {
		log.Fatal(err)
	}
	if it == nil {
		log.Fatal("no transit plan found")
	}
	fmt.Println("— public-transport plan —")
	printItinerary(it)

	// Aider mode: replace infeasible segments (walk > 1 km or wait > 10
	// min) with shared rides.
	aid, err := mmtp.Aider(it, eng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n— aider mode: %d infeasible segment(s), %d replaced by shared rides (%d searches) —\n",
		aid.Infeasible, aid.Replaced, aid.Searches)
	printItinerary(aid.Itinerary)

	// Enhancer mode: try shared rides over C(k+1,2) hop combinations.
	enh, err := mmtp.Enhancer(it, eng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n— enhancer mode: %d searches, improved=%v, hops %d → %d —\n",
		enh.Searches, enh.Improved, enh.HopsBefore, enh.HopsAfter)
	printItinerary(enh.Itinerary)
}

func printItinerary(it *mmtp.Itinerary) {
	for i, l := range it.Legs {
		desc := l.RouteName
		if l.Mode == mmtp.LegWalk {
			desc = fmt.Sprintf("%.0f m", l.Distance)
		}
		wait := ""
		if l.Wait > 0 {
			wait = fmt.Sprintf(" (wait %.1f min)", l.Wait/60)
		}
		fmt.Printf("  %d. %-9s %-22s %7.1f → %7.1f min%s\n",
			i+1, l.Mode, desc, (l.Start-it.Depart)/60, (l.End-it.Depart)/60, wait)
	}
	fmt.Printf("  total: %.1f min travel, %.1f min walking, %.1f min waiting, %d hop(s)\n",
		it.TravelTime()/60, it.WalkTime()/60, it.WaitTime()/60, it.Hops())
}
