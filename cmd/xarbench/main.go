// Command xarbench regenerates the tables and figures of the XAR paper's
// evaluation (§X). Each -fig value corresponds to an experiment in
// DESIGN.md's index:
//
//	xarbench -fig 3a          # detour approximation error CDF (E1)
//	xarbench -fig 3b          # clusters vs ε (E2)
//	xarbench -fig 3cd         # index memory & search time vs clusters (E3+E4)
//	xarbench -fig 4           # XAR vs T-Share search/create/book (E5–E7)
//	xarbench -fig 5a          # search time vs k (E8)
//	xarbench -fig 5b          # look-to-book sweep (E9)
//	xarbench -fig 6           # taxi vs RS vs PT vs RS+PT (E10)
//	xarbench -fig all         # everything
//
// Scale flags (-rows, -cols, -requests, -eps, -seed) trade fidelity for
// runtime; the defaults complete in a few minutes. The tables print
// the latencies each replay measures itself; the tool exports no
// telemetry (a live xarserver serves it at /v1/metrics/prom).
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"strings"
	"time"

	"xar/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xarbench: ")

	fig := flag.String("fig", "all", "figure to regenerate: 3a|3b|3cd|4|5a|5b|6|all")
	rows := flag.Int("rows", 40, "city lattice rows (streets)")
	cols := flag.Int("cols", 22, "city lattice columns (avenues)")
	requests := flag.Int("requests", 4000, "trip stream length")
	eps := flag.Float64("eps", 1000, "epsilon in meters (paper: 1 km)")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()
	figs := figures
	if *fig != "all" {
		figs = strings.Split(*fig, ",")
		for i, f := range figs {
			figs[i] = strings.TrimSpace(f)
			if !slices.Contains(figures, figs[i]) {
				log.Fatalf("unknown -fig %q (want %s|all, or a comma-separated list)", figs[i], strings.Join(figures, "|"))
			}
		}
	}

	scale := experiments.DefaultScale()
	scale.CityRows = *rows
	scale.CityCols = *cols
	scale.Requests = *requests
	scale.Epsilon = *eps
	scale.Seed = *seed

	start := time.Now()
	log.Printf("building world: %dx%d city, %d trips, ε=%.0f m, seed %d",
		scale.CityRows, scale.CityCols, scale.Requests, scale.Epsilon, scale.Seed)
	w, err := experiments.BuildWorld(scale)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("world ready in %v: %d road nodes, %d landmarks, %d clusters (measured ε=%.0f m)",
		time.Since(start).Round(time.Millisecond),
		w.City.Graph.NumNodes(), len(w.Disc.Landmarks), w.Disc.NumClusters(), w.Disc.Epsilon())

	for _, f := range figs {
		if err := run(w, f); err != nil {
			log.Fatalf("fig %s: %v", f, err)
		}
	}
}

// figures lists the -fig names run knows; -fig all runs each in turn.
var figures = []string{"3a", "3b", "3cd", "4", "5a", "5b", "6"}

func run(w *experiments.World, fig string) error {
	start := time.Now()
	defer func() {
		fmt.Printf("(fig %s took %v)\n\n", fig, time.Since(start).Round(time.Millisecond))
	}()
	switch fig {
	case "3a":
		r, err := experiments.Fig3a(w)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
		fmt.Println("error histogram (meters):")
		fmt.Println(r.Errors.Histogram(12, 40))

	case "3b":
		rows, err := experiments.Fig3b(w, []float64{400, 600, 800, 1000, 1400, 2000, 2800, 4000})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig3b(rows))

	case "3cd":
		rows, err := experiments.Fig3cd(w, []float64{600, 1000, 1600, 2400})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig3cd(rows))

	case "4":
		r, err := experiments.Fig4(w)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())
		fmt.Printf("XAR mean-search speedup over T-Share: %.1fx\n", r.SearchSpeedup())

	case "5a":
		rows, err := experiments.Fig5a(w, []int{1, 2, 5, 10, 15, 20, 25})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig5a(rows))

	case "5b":
		rows, err := experiments.Fig5b(w, []int{1, 5, 10, 50, 100, 500, 1000})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig5b(rows))

	case "6":
		r, err := experiments.Fig6(w)
		if err != nil {
			return err
		}
		fmt.Println(r.Table())

	default:
		return fmt.Errorf("unknown figure")
	}
	return nil
}
