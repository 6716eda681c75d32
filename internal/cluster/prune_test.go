package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xar/internal/roadnet"
)

// The traversal skips every distance the triangle inequality says cannot
// move an item. These tests hold it to the from-scratch oracle, ==
// everywhere, on metrics shaped like the discretization's and on
// instances built so the pruning test lands on its edge.

// roadMetric is the discretization's landmark metric in miniature: the
// directed driving distances between all nodes of a small generated city
// (one-way streets, so d(i→j) ≠ d(j→i)), rounded to float32 like the
// landmark table and symmetrized by max; its rows bound it from below.
func roadMetric(t *testing.T, rows, cols int, seed int64) (int, DistFunc, RowBound) {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(rows, cols, seed))
	if err != nil {
		t.Fatal(err)
	}
	g := city.Graph
	n := g.NumNodes()
	s := roadnet.NewSearcher(g)
	tab := make([][]float32, n)
	var all []float64
	for i := range tab {
		all = s.DistancesToAll(roadnet.NodeID(i), all)
		tab[i] = make([]float32, n)
		for j, d := range all {
			if math.IsInf(d, 1) {
				t.Fatalf("%dx%d seed %d: node %d cannot reach %d", rows, cols, seed, i, j)
			}
			tab[i][j] = float32(d)
		}
	}
	dist := func(i, j int) float64 { return float64(max(tab[i][j], tab[j][i])) }
	return n, dist, func(c int) []float32 { return tab[c] }
}

// rowsBelow turns any DistFunc into a RowBound: each row holds the
// distances rounded down to float32, so row[j] ≤ dist(c, j) exactly.
func rowsBelow(n int, dist DistFunc) RowBound {
	return func(c int) []float32 {
		row := make([]float32, n)
		for j := range row {
			d := dist(c, j)
			v := float32(d)
			if float64(v) > d {
				v = math.Nextafter32(v, float32(math.Inf(-1)))
			}
			row[j] = v
		}
		return row
	}
}

// checkPrunedEquivalence runs GreedySearch, and GreedySearchBounded with
// lower, against the oracle on one instance; both must also keep to the
// evaluation bound.
func checkPrunedEquivalence(t *testing.T, name string, n int, d DistFunc, lower RowBound, delta float64) {
	t.Helper()
	checkSearchEquivalence(t, name, n, d, delta)
	want, wantTrace, wantErr := greedySearchFromScratch(n, d, delta)
	evals := 0
	got, gotTrace, err := GreedySearchBounded(n, func(i, j int) float64 { evals++; return d(i, j) }, lower, delta)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s, bounded: err = %v, oracle %v", name, err, wantErr)
	}
	if !slices.Equal(gotTrace, wantTrace) || got.K != want.K || got.Radius != want.Radius ||
		!slices.Equal(got.Assign, want.Assign) || !slices.Equal(got.Centers, want.Centers) {
		t.Fatalf("%s, bounded: trace %v K %d radius %v centers %v\n            want trace %v K %d radius %v centers %v",
			name, gotTrace, got.K, got.Radius, got.Centers, wantTrace, want.K, want.Radius, want.Centers)
	}
	maxK := 0
	for _, p := range gotTrace {
		maxK = max(maxK, p.K)
	}
	if bound := n * (maxK + got.K); evals > bound {
		t.Fatalf("%s, bounded: %d distance evaluations, bound %d", name, evals, bound)
	}
}

func TestPrunedTraversalOnRoadMetrics(t *testing.T) {
	for _, c := range []struct {
		rows, cols int
		seed       int64
	}{{6, 4, 1}, {10, 6, 2}, {14, 8, 3}, {18, 10, 4}} {
		n, dist, lower := roadMetric(t, c.rows, c.cols, c.seed)
		for _, delta := range []float64{0, 60, 150, 250, 400, 1e4} {
			checkPrunedEquivalence(t, fmt.Sprintf("road %dx%d seed %d δ=%v", c.rows, c.cols, c.seed, delta), n, dist, lower, delta)
		}
	}
}

// A pass prunes item i (nearest centre a at m) for the new centre c when
// dist(a, c) ≥ 2m·pruneSlack. On a line 0 = a, m = i, g = c with i
// between them, dist(c, i) = g − m, so c takes i exactly when g < 2m:
// the instances put g at 2m and 2m·pruneSlack and one ulp either side of
// each, with duplicates of a and i.
func TestPrunedTraversalNearTies(t *testing.T) {
	for _, m := range []float64{1, 3, 250.5, 0.1} {
		for _, base := range []float64{2 * m, 2 * m * pruneSlack} {
			for _, g := range []float64{math.Nextafter(base, 0), base, math.Nextafter(base, math.Inf(1))} {
				xs := []float64{0, m, g, m, 0, g / 2}
				dist := func(i, j int) float64 { return math.Abs(xs[i] - xs[j]) }
				for _, delta := range []float64{0, m / 2, m, g} {
					name := fmt.Sprintf("line m=%v g=%v δ=%v", m, g, delta)
					checkPrunedEquivalence(t, name, len(xs), dist, rowsBelow(len(xs), dist), delta)
				}
			}
		}
	}
}

// Integer points under L1 distance: every distance is an exact integer,
// so dist(a, c) = 2m and dist(c, i) = m hold exactly again and again, and
// many points coincide.
func TestPrunedTraversalLatticeTies(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{20, 90, 300} {
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{float64(r.Intn(9)), float64(r.Intn(9))}
		}
		dist := func(i, j int) float64 {
			return math.Abs(pts[i][0]-pts[j][0]) + math.Abs(pts[i][1]-pts[j][1])
		}
		for _, delta := range []float64{0, 0.5, 1, 2, 3, 8} {
			checkPrunedEquivalence(t, fmt.Sprintf("lattice n=%d δ=%v", n, delta), n, dist, rowsBelow(n, dist), delta)
		}
	}
}
