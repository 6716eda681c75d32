package index

import (
	"math/rand"
	"testing"
)

// BenchmarkListEditDense times one mid-list edit pair — a ride's tuple
// removed and added back under a new ETA, what a booking's re-registration
// does to every list it touches — on lists as long as the repository
// benchmark's search_dense fleet leaves them: 256 lists of 2 400 tuples
// (≈ 7 MB of postings, more than a core's L2) over six hours of ETAs,
// built in time order with jitter the way creates build them. It reports
// the tuples the edits shifted and the keys their searches probed, per
// op.
func BenchmarkListEditDense(b *testing.B) {
	const (
		lists   = 256
		perList = 2400
		span    = 6 * 3600.0
	)
	rng := rand.New(rand.NewSource(42))
	ls := make([]clusterList, lists)
	etas := make([][]float64, lists)
	var w WriteWork
	for c := range ls {
		etas[c] = make([]float64, perList)
		for s := range etas[c] {
			eta := float64(s)*span/perList + rng.Float64()*600
			etas[c][s] = eta
			ls[c].add(&w, int32(s), eta)
		}
	}
	w = WriteWork{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % lists
		s := int32(rng.Intn(perList))
		was := etas[c][s]
		now := was + (rng.Float64()-0.5)*600
		if !ls[c].remove(&w, s, was) {
			b.Fatalf("list %d lost slot %d", c, s)
		}
		ls[c].add(&w, s, now)
		etas[c][s] = now
	}
	b.ReportMetric(float64(w.Shifted)/float64(b.N), "tuples/op")
	b.ReportMetric(float64(w.Probes)/float64(b.N), "probes/op")
}
