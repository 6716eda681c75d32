package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// greedySearchFromScratch is GREEDYSEARCH as the paper states it and as
// GreedySearch ran before one traversal answered every probe: a binary
// search over k that calls Greedy afresh each time. Kept as the oracle.
func greedySearchFromScratch(n int, dist DistFunc, delta float64) (Result, []SearchTrace, error) {
	var trace []SearchTrace
	lo, hi := 1, n
	best := Result{}
	found := false
	for lo <= hi {
		k := (lo + hi) / 2
		res, err := Greedy(n, dist, k)
		if err != nil {
			return Result{}, nil, err
		}
		trace = append(trace, SearchTrace{K: k, Radius: res.Radius})
		if res.Radius <= 2*delta {
			if !found || res.K < best.K {
				best = res
				found = true
			}
			hi = k - 1
		} else {
			lo = k + 1
		}
	}
	if !found {
		res, err := Greedy(n, dist, n)
		if err != nil {
			return Result{}, nil, err
		}
		trace = append(trace, SearchTrace{K: n, Radius: res.Radius})
		if res.Radius > 2*delta {
			return Result{}, trace, fmt.Errorf("cluster: no feasible clustering found (radius %v > 2δ=%v at k=n)", res.Radius, 2*delta)
		}
		best = res
	}
	return best, trace, nil
}

// checkSearchEquivalence runs both searches on one instance and requires
// the same Result, the same trace and the evaluation bound; it returns
// the result for instance-specific checks.
func checkSearchEquivalence(t *testing.T, name string, n int, d DistFunc, delta float64) Result {
	t.Helper()
	want, wantTrace, wantErr := greedySearchFromScratch(n, d, delta)
	evals := 0
	got, gotTrace, err := GreedySearch(n, func(i, j int) float64 { evals++; return d(i, j) }, delta)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: err = %v, oracle %v", name, err, wantErr)
	}
	// Every probe, the ones past k* included: == on the radius, which a
	// traversal that stopped at k* could not have for them.
	if !slices.Equal(gotTrace, wantTrace) {
		t.Fatalf("%s: trace\n got %v\nwant %v", name, gotTrace, wantTrace)
	}
	if got.K != want.K || got.Radius != want.Radius ||
		!slices.Equal(got.Assign, want.Assign) || !slices.Equal(got.Centers, want.Centers) {
		t.Fatalf("%s: result differs: K %d/%d radius %v/%v\ncenters %v\n   want %v", name, got.K, want.K, got.Radius, want.Radius, got.Centers, want.Centers)
	}
	maxK := 0
	for _, p := range gotTrace {
		maxK = max(maxK, p.K)
	}
	if bound := n * (maxK + got.K); evals > bound {
		t.Fatalf("%s: %d distance evaluations, bound n·(largest k probed + k*) = %d·(%d+%d) = %d", name, evals, n, maxK, got.K, bound)
	}
	return got
}

func TestGreedySearchMatchesFromScratchProbes(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 37, 500} {
		pts := randPoints(r, n, 5000)
		for _, delta := range []float64{0, 40, 150, 400, 900, 2500, 1e6} {
			checkSearchEquivalence(t, fmt.Sprintf("planar n=%d δ=%v", n, delta), n, planarDist(pts), delta)
		}
	}
}

// 60 items on 7 sites: the traversal runs out of distinct points (farD ==
// 0) after 7 centres, and Greedy(k) for every larger k is that result.
func TestGreedySearchDuplicatePoints(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	sites := randPoints(r, 7, 1000)
	pts := make([][2]float64, 60)
	for i := range pts {
		pts[i] = sites[r.Intn(len(sites))]
	}
	for _, delta := range []float64{0, 100, 300} {
		res := checkSearchEquivalence(t, fmt.Sprintf("duplicates δ=%v", delta), len(pts), planarDist(pts), delta)
		if res.K > len(sites) {
			t.Fatalf("δ=%v: %d clusters over %d distinct sites", delta, res.K, len(sites))
		}
	}
}

// δ = 0 over distinct points: only k = n is feasible, the search climbs
// to it and the traversal is never ahead of the answer.
func TestGreedySearchNoFeasibleKBelowN(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	const n = 41
	res := checkSearchEquivalence(t, "distinct δ=0", n, planarDist(randPoints(r, n, 1000)), 0)
	if res.K != n {
		t.Fatalf("K = %d, want every item its own cluster (%d)", res.K, n)
	}
}

// A dist that is no metric: nothing is ever feasible, and both searches
// fail with the same words after the same probes.
func TestGreedySearchNaNDistances(t *testing.T) {
	nan := func(i, j int) float64 { return math.NaN() }
	checkSearchEquivalence(t, "NaN", 9, nan, 100)
	if _, _, err := GreedySearch(9, nan, 100); err == nil {
		t.Fatal("NaN distances must not yield a clustering")
	}
}
