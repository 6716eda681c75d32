package index

import (
	"testing"

	"xar/internal/discretize"
	"xar/internal/roadnet"
	"xar/internal/workload"
)

// BenchmarkRegister times Insert — the pass-through walk, the reachable
// cluster scan, the grouped support table and the posting-list adds — on
// the repository benchmark's 80×44 city (seed 42, ε = 1 000 m) at its
// 2 000 m detour budget. Each op inserts one ride of a pool of trips
// drawn like the benchmark's; off the timer, the oldest ride is retired
// once 300 are registered, so the lists hold a steady fleet. It reports
// the support records an insert writes.
//
// The warm arm inserts back to back, so the lines of the cluster tables
// one insert reads are mostly still cached for the next. The cold arm
// writes a buffer larger than a core's L2 between inserts, off the timer,
// as a create does after a search and a booking have run through other
// data: there the reachable-cluster scan pays for every line it touches.
func BenchmarkRegister(b *testing.B) {
	const (
		fleet  = 300
		pool   = 4 * fleet // a pooled ride is retired long before it returns
		detour = 2000
	)
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(80, 44, 42))
	if err != nil {
		b.Fatal(err)
	}
	d, err := discretize.Build(city, discretize.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	wcfg := workload.DefaultConfig(pool, 42)
	wcfg.StartHour, wcfg.EndHour = 6, 7.2
	trips, err := workload.Generate(city, wcfg)
	if err != nil {
		b.Fatal(err)
	}
	rides := make([]*Ride, 0, pool)
	for _, t := range trips {
		from, _ := city.SnapToNode(t.Pickup)
		to, _ := city.SnapToNode(t.Dropoff)
		if from != to {
			rides = append(rides, makeRide(b, d, from, to, t.RequestTime, detour))
		}
	}
	run := func(evict []byte) func(b *testing.B) {
		return func(b *testing.B) {
			ix := New(d)
			supports := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if evict != nil {
					b.StopTimer()
					for j := 0; j < len(evict); j += 64 {
						evict[j]++ // one write a cache line
					}
					b.StartTimer()
				}
				r := rides[i%len(rides)]
				if err := ix.Insert(r); err != nil {
					b.Fatal(err)
				}
				supports += len(r.det)
				if i >= fleet-1 {
					b.StopTimer()
					ix.Remove(rides[(i-fleet+1)%len(rides)].ID)
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(supports)/float64(b.N), "supports/op")
		}
	}
	b.Run("warm", run(nil))
	b.Run("cold", run(make([]byte, 4<<20)))
}
