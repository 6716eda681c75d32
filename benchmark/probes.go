package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"xar/internal/core"
	"xar/internal/geo"
	"xar/internal/index"
	"xar/internal/memsize"
	"xar/internal/roadnet"
	"xar/internal/workload"
)

// The probes of the traced pass call single layers directly, on the
// inputs and the fleet a traced round left behind, and record a span per
// call. They use public API only.

const (
	probeRides    = 2000 // rides the index re-registration probe cycles through
	probeRequests = 2000 // requests the read probes look up
	probePairs    = 300  // pickup→dropoff pairs the routers answer
)

// sampleTrips picks up to n trips evenly strided over trips.
func sampleTrips(trips []workload.Trip, n int) []workload.Trip {
	if len(trips) <= n {
		return trips
	}
	out := make([]workload.Trip, n)
	for i := range out {
		out[i] = trips[i*len(trips)/n]
	}
	return out
}

// probeIndex measures the index layer on a standalone sharded index
// filled with clones of all the engine's rides: the three writes, and
// posting-list reads over a request's pickup-side clusters.
func probeIndex(eng *core.Engine, reqs []workload.Trip, rec *recorder, out map[string]float64) error {
	view := eng.Index()
	stats := view.Stats()
	out["index.rides"] = float64(stats.Rides)
	out["index.posting_entries"] = float64(stats.ListEntries)
	out["index.shards_visited_per_search"] = float64(view.NumShards())
	out["index.bytes_per_ride"] = indexBytesPerRide(eng)

	var rides []*index.Ride
	view.Rides(func(r *index.Ride) bool {
		rides = append(rides, r.Clone())
		return true
	})
	sort.Slice(rides, func(i, j int) bool { return rides[i].ID < rides[j].ID })
	disc := eng.Disc()
	sh, err := index.NewSharded(disc, index.DefaultConfig(), view.NumShards())
	if err != nil {
		return err
	}
	timed := func(name string, rides []*index.Ride, f func(s *index.Shard, r *index.Ride)) {
		for i, r := range rides {
			s := sh.ShardFor(r.ID)
			t0 := clock()
			s.Lock()
			f(s, r)
			s.Unlock()
			rec.add(int32(i), 0, name, t0, clock(), 0)
		}
	}
	timed("index.insert", rides, func(s *index.Shard, r *index.Ride) { err = firstError(err, s.Ix.Insert(r)) })
	timed("index.reregister", rides[:min(len(rides), probeRides)], func(s *index.Shard, r *index.Ride) { err = firstError(err, s.Ix.Reregister(r)) })
	if err != nil {
		return err
	}

	// Reads: one span per request, covering every walkable pickup-side
	// cluster in every shard, the way a search's first step reads them.
	var windows, entries int
	var dst []index.RideID
	for i, t := range sampleTrips(reqs, probeRequests) {
		info := disc.Info(disc.GridAt(t.Pickup))
		if info == nil {
			continue
		}
		clusters := info.WalkableWithin(walkLimitM)
		t0 := clock()
		for _, c := range clusters {
			for j := 0; j < sh.NumShards(); j++ {
				s := sh.Shard(j)
				s.RLock()
				dst = s.Ix.PotentialRides(c.Cluster, t.RequestTime, t.RequestTime+windowSlackS, dst[:0])
				s.RUnlock()
				entries += len(dst)
			}
		}
		rec.add(int32(i), 0, "index.potential_rides", t0, clock(), len(clusters))
		windows += len(clusters)
	}
	out["index.entries_per_window"] = ratio(float64(entries), float64(windows))

	timed("index.remove", rides, func(s *index.Shard, r *index.Ride) { s.Ix.Remove(r.ID) })
	return nil
}

func firstError(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// probeDiscretize measures the side lookup a search starts with, for
// both endpoints of each request, and sizes the discretization.
func probeDiscretize(w *world, reqs []workload.Trip, rec *recorder, out map[string]float64) {
	disc := w.disc
	var sides, clusters int
	for i, t := range sampleTrips(reqs, probeRequests) {
		for _, pt := range [2]geo.Point{t.Pickup, t.Dropoff} {
			t0 := clock()
			info := disc.Info(disc.GridAt(pt))
			n := 0
			if info != nil {
				n = len(info.WalkableWithin(walkLimitM))
			}
			rec.add(int32(i), 0, "discretize.side_lookup", t0, clock(), n)
			sides++
			clusters += n
		}
	}
	out["discretize.walkable_clusters_per_side"] = ratio(float64(clusters), float64(sides))
	out["discretize.landmarks"] = float64(len(disc.Landmarks))
	out["discretize.clusters"] = float64(disc.NumClusters())
	out["discretize.epsilon_m"] = disc.Epsilon()
	// The road graph is the roadnet layer's: count it first so the
	// discretization reports only what it owns.
	acc := memsize.NewAccumulator()
	acc.Add(w.city.Graph)
	graphBytes := acc.Total()
	disc.MeasureMem(acc)
	out["discretize.bytes"] = float64(acc.Total() - graphBytes)
}

// probeRoadnet answers the workload's own pickup→dropoff pairs with each
// router and times their preprocessing.
func probeRoadnet(w *world, reqs []workload.Trip, rec *recorder, out map[string]float64) error {
	g := w.city.Graph
	out["roadnet.nodes"] = float64(g.NumNodes())
	out["roadnet.edges"] = float64(g.NumEdges())

	type pair struct{ from, to roadnet.NodeID }
	var pairs []pair
	for _, t := range sampleTrips(reqs, probePairs) {
		from, _ := w.city.SnapToNode(t.Pickup)
		to, _ := w.city.SnapToNode(t.Dropoff)
		pairs = append(pairs, pair{from, to})
	}
	query := func(name string, sp func(from, to roadnet.NodeID) roadnet.SPResult) {
		for i, p := range pairs {
			t0 := clock()
			sp(p.from, p.to)
			rec.add(int32(i), 0, name, t0, clock(), 0)
		}
	}
	query("roadnet.query.astar", roadnet.NewSearcher(g).ShortestPath)

	t0 := time.Now()
	alt, err := roadnet.NewALT(g, 0)
	if err != nil {
		return err
	}
	out["roadnet.preprocess_ms.alt"] = float64(time.Since(t0)) / 1e6
	query("roadnet.query.alt", alt.NewSearcher().ShortestPath)

	t0 = time.Now()
	ch, err := roadnet.BuildCH(g, roadnet.CHConfig{})
	if err != nil {
		return err
	}
	out["roadnet.preprocess_ms.ch"] = float64(time.Since(t0)) / 1e6
	query("roadnet.query.ch", ch.NewSearcher().ShortestPath)
	return nil
}

// probeSearchAllocs counts what one search allocates, over the requests
// of the round on the fleet it left.
func probeSearchAllocs(eng *core.Engine, reqs []workload.Trip, k int, out map[string]float64) {
	reqs = sampleTrips(reqs, probeRequests)
	m0 := readMem()
	for _, t := range reqs {
		_, _ = eng.SearchK(requestOf(t), k) // a rejection allocates like any other outcome
	}
	d := memSince(&m0)
	out["core.allocs_per_search"] = ratio(float64(d.mallocs), float64(len(reqs)))
	out["core.alloc_bytes_per_search"] = ratio(float64(d.bytes), float64(len(reqs)))
}

// clockPairNS is the cost of one start/stop timestamp pair: every
// latency in the benchmark includes it once.
func clockPairNS() float64 {
	const n = 200000
	var sink int64
	t0 := clock()
	for i := 0; i < n; i++ {
		a := clock()
		sink += clock() - a
	}
	total := clock() - t0
	runtime.KeepAlive(sink)
	return float64(total) / n
}

// spinMS times a fixed pure-CPU kernel. It does not depend on the
// repository's code, so a change in it is the host, not the program.
func spinMS() float64 {
	t0 := clock()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	runtime.KeepAlive(x)
	return float64(clock()-t0) / 1e6
}

// cpuJiffies reads the aggregate cpu line of /proc/stat: total and steal
// ticks, 0 where the file does not exist.
func cpuJiffies() (total, steal float64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, s := range fields[1:] {
			v, _ := strconv.ParseFloat(s, 64)
			total += v
			if i == 7 {
				steal = v
			}
		}
		break
	}
	return total, steal
}
