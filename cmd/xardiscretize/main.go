// Command xardiscretize runs the XAR pre-processing pipeline in
// isolation (§IV–V): city generation, landmark extraction, GREEDYSEARCH
// clustering, and the grid/landmark/cluster association tables. It
// prints the discretization statistics and, with -sweep, the ε sweep of
// Figure 3b.
//
//	xardiscretize -rows 40 -cols 22 -eps 1000
//	xardiscretize -sweep
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"xar/internal/cluster"
	"xar/internal/discretize"
	"xar/internal/memsize"
	"xar/internal/roadnet"
	"xar/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xardiscretize: ")

	rows := flag.Int("rows", 40, "city lattice rows")
	cols := flag.Int("cols", 22, "city lattice columns")
	seed := flag.Int64("seed", 42, "random seed")
	eps := flag.Float64("eps", 1000, "epsilon (= 4δ) in meters")
	minSep := flag.Float64("f", 200, "minimum landmark separation f in meters")
	maxDrive := flag.Float64("delta-drive", 1000, "max grid→landmark driving distance Δ")
	maxWalk := flag.Float64("walk", 1000, "system walking limit W")
	sweep := flag.Bool("sweep", false, "sweep ε and print cluster counts (Fig 3b)")
	trace := flag.Bool("trace", false, "print the GREEDYSEARCH binary-search trace (Build does not keep it: costs one more exact landmark table and clustering per ε)")
	flag.Parse()

	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(*rows, *cols, *seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city: %d nodes, %d edges, %.1f x %.1f km\n",
		city.Graph.NumNodes(), city.Graph.NumEdges(),
		city.Graph.BBox().WidthMeters()/1000, city.Graph.BBox().HeightMeters()/1000)

	epsilons := []float64{*eps}
	if *sweep {
		epsilons = []float64{400, 600, 800, 1000, 1400, 2000, 2800, 4000}
	}

	table := stats.NewTable("eps_m", "landmarks", "clusters", "measured_eps_m", "disc_bytes", "build")
	for _, e := range epsilons {
		cfg := discretize.DefaultConfig()
		cfg.Delta = e / 4
		cfg.LandmarkMinSep = *minSep
		cfg.MaxDriveToLandmark = *maxDrive
		cfg.MaxWalk = *maxWalk

		start := time.Now()
		d, err := discretize.Build(city, cfg)
		if err != nil {
			log.Fatal(err)
		}
		build := time.Since(start)
		table.AddRow(e, len(d.Landmarks), d.NumClusters(), d.Epsilon(),
			int64(memsize.Of(d)), build.Round(time.Millisecond).String())

		if *trace {
			exact, _, err := discretize.LandmarkTable(city.Graph, d.Landmarks)
			if err != nil {
				log.Fatal(err)
			}
			dist, lower := discretize.LandmarkMetric(exact)
			_, tr, err := cluster.GreedySearchBounded(len(d.Landmarks), dist, lower, e/4)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("GREEDYSEARCH trace for ε=%.0f (δ=%.0f):\n", e, e/4)
			for _, probe := range tr {
				feasible := "infeasible"
				if probe.Radius <= 2*(e/4) {
					feasible = "feasible"
				}
				fmt.Printf("  k=%-5d radius=%-8.1f %s\n", probe.K, probe.Radius, feasible)
			}
		}
	}
	fmt.Print(table.String())
}
