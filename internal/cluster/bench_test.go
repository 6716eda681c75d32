package cluster_test

import (
	"testing"

	"xar/internal/cluster"
	"xar/internal/experiments"
)

// BenchmarkAblationGreedySearchProbes: GREEDYSEARCH answering every probe
// of its binary search from one pruned farthest-first traversal, as
// discretize.Build runs it, vs the paper's literal algorithm, a fresh
// GREEDY per probe (the oracle in oracle_test.go). Both run on the root
// package's benchmark world, a 30×16 city.
func BenchmarkAblationGreedySearchProbes(b *testing.B) {
	s := experiments.DefaultScale()
	s.CityRows, s.CityCols, s.Requests = 30, 16, 1500
	w, err := experiments.BuildWorld(s)
	if err != nil {
		b.Fatal(err)
	}
	n := len(w.Disc.Landmarks)
	dist, lower := w.Disc.LandmarkMetric()
	delta := w.Scale.Epsilon / 4

	b.Run("traversal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cluster.GreedySearchBounded(n, dist, lower, delta); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from_scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for lo, hi := 1, n; lo <= hi; {
				k := (lo + hi) / 2
				res, err := cluster.Greedy(n, dist, k)
				if err != nil {
					b.Fatal(err)
				}
				if res.Radius <= 2*delta {
					hi = k - 1
				} else {
					lo = k + 1
				}
			}
		}
	})
}
