// Package discretize builds the XAR three-tiered hierarchical region
// discretization (§IV of the paper) on top of the road network:
//
//	region → clusters → landmarks → grids → point locations
//
// with the cross-level relations the paper requires: every grid maps to
// the landmark minimizing its driving distance (if one lies within Δ),
// and every grid carries a sorted list of walkable clusters within the
// system walking limit W.
//
// Pre-processing runs once per region: landmark extraction, a one-to-all
// Dijkstra sweep per landmark (roadnet's kernel, parallelized across
// CPUs), GREEDYSEARCH clustering with the (k_OPT, 4δ) bicriteria
// guarantee — one farthest-first traversal answering every probe — and
// cluster-to-cluster distance tables. The grid tier is built with the
// rest: one dense row-major table holding every cell's attributes, so a
// search's side lookup is an array read.
package discretize

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"xar/internal/cluster"
	"xar/internal/geo"
	"xar/internal/grid"
	"xar/internal/landmark"
	"xar/internal/memsize"
	"xar/internal/roadnet"
)

// Config carries the system parameters of the paper.
type Config struct {
	// GridCellSize is the grid edge in meters (paper: 100 m → 100 m² "size").
	GridCellSize float64
	// LandmarkMinSep is f: minimum separation between landmarks.
	LandmarkMinSep float64
	// MaxLandmarks caps extraction (0 = no cap).
	MaxLandmarks int
	// Delta is δ: the target maximum driving distance between any two
	// landmarks of a cluster. The bicriteria guarantee stretches this to
	// ε = 4δ in the worst case.
	Delta float64
	// MaxDriveToLandmark is Δ: a grid is associated with a landmark only
	// if the grid→landmark driving distance is at most Δ.
	MaxDriveToLandmark float64
	// MaxWalk is W: the system-wide maximum walking distance; walkable
	// cluster lists only contain clusters within W.
	MaxWalk float64
}

// walkDetourFactor converts straight-line distance to walking distance
// (sidewalk detours).
const walkDetourFactor = 1.2

// DefaultConfig returns the paper's parameter choices at the reproduction
// scale: 100 m grids, ε = 1 km (δ = 250 m), Δ = 1 km, W = 1 km.
func DefaultConfig() Config {
	return Config{
		GridCellSize:       100,
		LandmarkMinSep:     200,
		Delta:              250,
		MaxDriveToLandmark: 1000,
		MaxWalk:            1000,
	}
}

// Validate reports configuration errors. Every distance must be a finite
// number: NaN fails every comparison below, so it is named first.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"GridCellSize", c.GridCellSize},
		{"LandmarkMinSep", c.LandmarkMinSep},
		{"Delta", c.Delta},
		{"MaxDriveToLandmark", c.MaxDriveToLandmark},
		{"MaxWalk", c.MaxWalk},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("discretize: %s must be finite, got %v", f.name, f.v)
		}
	}
	switch {
	case c.GridCellSize <= 0:
		return fmt.Errorf("discretize: GridCellSize must be positive, got %v", c.GridCellSize)
	case c.LandmarkMinSep < 0:
		return fmt.Errorf("discretize: LandmarkMinSep must be >= 0, got %v", c.LandmarkMinSep)
	case c.Delta <= 0:
		return fmt.Errorf("discretize: Delta must be positive, got %v", c.Delta)
	case c.MaxDriveToLandmark <= 0:
		return fmt.Errorf("discretize: MaxDriveToLandmark must be positive, got %v", c.MaxDriveToLandmark)
	case c.MaxWalk < 0:
		return fmt.Errorf("discretize: MaxWalk must be >= 0, got %v", c.MaxWalk)
	}
	return nil
}

// WalkableCluster is one entry of a grid's walkable-cluster list: cluster
// C is reachable on foot with walking distance Walk = distance to the
// nearest landmark of C, Walk ≤ W. Lists are sorted by non-decreasing
// Walk (the paper prunes them by a request's walking threshold with a
// linear scan of this order).
type WalkableCluster struct {
	Cluster int
	Walk    float64
}

// GridInfo carries the per-grid attributes of the hierarchy.
type GridInfo struct {
	// Landmark is the landmark minimizing the grid→landmark driving
	// distance, or -1 if none is within Δ (remote grid).
	Landmark int
	// DriveDist is the driving distance to Landmark (NaN if none).
	DriveDist float64
	// Walkable lists the walkable clusters sorted by walking distance.
	Walkable []WalkableCluster
}

// Cluster is one cluster of the top tier.
type Cluster struct {
	ID        int
	Landmarks []int // member landmark IDs
}

// Discretization is the built three-tier hierarchy plus the distance
// tables the in-memory index needs. It is immutable after Build and safe
// for concurrent use.
type Discretization struct {
	cfg  Config
	city *roadnet.City

	Grid      *grid.System
	Landmarks []landmark.Landmark
	Clusters  []Cluster

	landmarkCluster []int       // landmark → cluster
	clusterDist     [][]float32 // by destination: clusterDist[b][a] = d(a→b), the min landmark pair

	// The directed landmark→landmark driving distances as they stay
	// resident: lmQ[a·n+b] is d(a→b) in whole units of lmUnit, the longest
	// entry / 65 535, rounded to the nearest, so a lookup is within
	// lmUnit/2 of the exact distance.
	// Clustering, ε, the cluster table and the node table are computed on
	// the exact table (LandmarkTable) before Build converts and drops it.
	lmQ    []uint16
	lmUnit float64

	// Per-road-node landmark assignment: nearest landmark by driving
	// distance node→landmark within Δ (lowest ID tie-break), or -1.
	nodeLandmark     []int32
	nodeLandmarkDist []float32

	// Measured guarantee: max intra-cluster landmark distance (≤ 4δ).
	epsilon float64

	// The grid tier: every cell's attributes in row-major order
	// (Grid.Index), walkable lists sub-slicing one exact-size array per row.
	cells []GridInfo

	// Landmark spatial buckets for walkable-cluster queries, over the
	// grid system's box, which holds every landmark (a node of the graph)
	// as the scan's geo.FlatBound requires; and geo.CosLat of each
	// landmark.
	lmIndex *geo.Buckets
	lmCos   []float64
}

// MeasureMem implements memsize.Measurer. The structure is immutable
// after Build, so it is walked without a lock. The road graph it points
// at is reached by the walk too — register the graph first so the shared
// accumulator attributes it separately and this component reports only
// discretization-owned bytes (landmarks, clusters, distance tables, the
// grid table).
func (d *Discretization) MeasureMem(a *memsize.Accumulator) {
	if d == nil {
		return
	}
	a.Add(d)
}

// Build runs the full pre-processing pipeline for city under cfg.
func Build(city *roadnet.City, cfg Config) (*Discretization, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := city.Graph
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("discretize: empty road network")
	}

	box := g.BBox().Pad(cfg.MaxWalk + cfg.GridCellSize)
	gs, err := grid.NewSystem(box, cfg.GridCellSize)
	if err != nil {
		return nil, err
	}

	lms, err := landmark.Extract(g, landmark.Config{
		MinSeparation: cfg.LandmarkMinSep,
		MaxLandmarks:  cfg.MaxLandmarks,
	})
	if err != nil {
		return nil, err
	}
	d := &Discretization{
		cfg:       cfg,
		city:      city,
		Grid:      gs,
		Landmarks: lms,
		lmIndex:   geo.NewBuckets(box, cmp.Or(cfg.MaxWalk, 500), landmark.Points(lms)), // 500 m cells when W = 0
		lmCos:     make([]float64, len(lms)),
	}
	for i, lm := range lms {
		d.lmCos[i] = geo.CosLat(lm.Point)
	}

	exact, longest, err := LandmarkTable(g, lms)
	if err != nil {
		return nil, err
	}
	// GREEDYSEARCH is serial and the node table parallel; neither reads
	// what the other writes, so they run side by side.
	clustered := make(chan error, 1)
	go func() { clustered <- d.clusterLandmarks(exact) }()
	d.assignNodesToLandmarks()
	if err := <-clustered; err != nil {
		return nil, err
	}
	d.computeClusterDistances(exact)
	d.storeLandmarkTable(exact, longest)
	d.buildGridTable()
	return d, nil
}

// Parallel shares the indices 0 … n−1 out over GOMAXPROCS workers (at
// most n) and returns when every index is handled. newWorker runs once on
// each worker's goroutine and returns the function that handles one
// index, so a worker keeps its scratch across every index it is handed.
// Each stage that uses it writes disjoint rows or merges by a rule that
// ignores order, so what it builds does not depend on the number of
// workers. The index's neighbour table is built on it too.
func Parallel(n int, newWorker func() func(i int)) {
	var wg sync.WaitGroup
	jobs := make(chan int)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do := newWorker()
			for i := range jobs {
				do(i)
			}
		}()
	}
	for i := range n {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// LandmarkTable returns the directed driving distances between the
// landmarks of g, table[i][j] = d(i→j) in float32, and the longest of
// them: the exact table Build clusters on before it keeps the table only
// to a unit (LandmarkDist). Tools and tests that need the exact metric
// build it here. It fails if a landmark cannot reach another.
//
// One sweep of roadnet's one-to-all kernel per landmark, the landmarks
// shared out over the workers. A worker owns one Searcher and one
// distance array for all its sweeps, writes each landmark's row straight
// from that array and takes the row's maximum as it goes, so a row
// holding +Inf is found from the n maxima alone.
func LandmarkTable(g *roadnet.Graph, lms []landmark.Landmark) (table [][]float32, longest float32, err error) {
	n := len(lms)
	table = make([][]float32, n)
	rowMax := make([]float32, n)
	Parallel(n, func() func(int) {
		s := roadnet.NewSearcher(g)
		var all []float64
		return func(i int) {
			all = s.DistancesToAll(lms[i].Node, all)
			row := make([]float32, n)
			var m float32
			for j := range row {
				row[j] = float32(all[lms[j].Node])
				m = max(m, row[j])
			}
			table[i], rowMax[i] = row, m
		}
	})
	for i, m := range rowMax {
		if math.IsInf(float64(m), 1) {
			j := slices.Index(table[i], m)
			return nil, 0, fmt.Errorf("discretize: landmark %d cannot reach landmark %d; network not strongly connected", i, j)
		}
		longest = max(longest, m)
	}
	return table, longest, nil
}

// storeLandmarkTable keeps the exact table as the resident one: every
// entry in whole units of longest / 65 535, rounded to the nearest, one
// row per index of Parallel. The exact rows are not kept.
func (d *Discretization) storeLandmarkTable(exact [][]float32, longest float32) {
	n := len(exact)
	d.lmUnit = float64(longest) / math.MaxUint16
	perUnit := 0.0 // every entry is 0 when the longest is
	if d.lmUnit > 0 {
		perUnit = 1 / d.lmUnit
	}
	d.lmQ = make([]uint16, n*n)
	Parallel(n, func() func(int) {
		return func(i int) {
			q := d.lmQ[i*n : (i+1)*n]
			for j, v := range exact[i] {
				q[j] = uint16(float64(v)*perUnit + 0.5)
			}
		}
	})
}

// clusterLandmarks runs GREEDYSEARCH over LandmarkMetric(exact).
func (d *Discretization) clusterLandmarks(exact [][]float32) error {
	dist, lower := LandmarkMetric(exact)
	res, _, err := cluster.GreedySearchBounded(len(d.Landmarks), dist, lower, d.cfg.Delta)
	if err != nil {
		return err
	}
	d.landmarkCluster = res.Assign
	d.Clusters = make([]Cluster, res.K)
	for c := range d.Clusters {
		d.Clusters[c].ID = c
	}
	for lm, c := range res.Assign {
		d.Clusters[c].Landmarks = append(d.Clusters[c].Landmarks, lm)
	}
	d.epsilon = res.MaxIntra(dist)
	return nil
}

// LandmarkMetric returns the metric GREEDYSEARCH clusters the landmarks
// under, over a table of LandmarkTable's: dist(i, j) = max(d(i→j),
// d(j→i)) over the directed driving distances, and lower(i) = d(i→·),
// which is never above it and needs none of the column reads dist makes.
// lower returns the table's own row i: read it, never write it.
// Symmetrization with max preserves the triangle inequality that
// Theorem 6's proof uses, and is conservative: the ε it certifies bounds
// driving distance in both directions.
func LandmarkMetric(table [][]float32) (dist cluster.DistFunc, lower cluster.RowBound) {
	dist = func(i, j int) float64 { return float64(max(table[i][j], table[j][i])) }
	lower = func(i int) []float32 { return table[i] }
	return dist, lower
}

// computeClusterDistances fills the directed cluster distance table:
// dist(C, C') = min over landmark pairs (a ∈ C, b ∈ C') of the driving
// distance a→b, as the paper defines ("the distance between the closest
// pair of landmarks belonging to the two clusters"). The rows are built
// by source, shared out over the workers, each reading its landmarks' own
// rows of the exact landmark table; the square table is then transposed
// in place once, so that it is stored by destination (ClusterDistsTo).
func (d *Discretization) computeClusterDistances(exact [][]float32) {
	k := len(d.Clusters)
	d.clusterDist = make([][]float32, k)
	Parallel(k, func() func(int) {
		return func(i int) {
			dist := make([]float32, k)
			for j := range dist {
				if i == j {
					continue
				}
				best := float32(math.Inf(1))
				for _, a := range d.Clusters[i].Landmarks {
					row := exact[a]
					for _, b := range d.Clusters[j].Landmarks {
						if row[b] < best {
							best = row[b]
						}
					}
				}
				dist[j] = best
			}
			d.clusterDist[i] = dist
		}
	})
	for i := range k {
		for j := range i {
			d.clusterDist[i][j], d.clusterDist[j][i] = d.clusterDist[j][i], d.clusterDist[i][j]
		}
	}
}

// assignNodesToLandmarks computes, for every road node, the landmark
// minimizing the node→landmark driving distance, considering only
// landmarks within Δ. One bounded reverse Dijkstra per landmark (radius
// Δ); ties broken by the lowest landmark ID, the paper's rule, so the
// order the workers merge in does not matter.
func (d *Discretization) assignNodesToLandmarks() {
	g := d.city.Graph
	nNodes := g.NumNodes()
	d.nodeLandmark = make([]int32, nNodes)
	d.nodeLandmarkDist = make([]float32, nNodes)
	for i := range d.nodeLandmark {
		d.nodeLandmark[i] = -1
		d.nodeLandmarkDist[i] = float32(math.Inf(1))
	}

	type hit struct {
		node roadnet.NodeID
		lm   int32
		dist float32
	}
	var mu sync.Mutex
	Parallel(len(d.Landmarks), func() func(int) {
		s := roadnet.NewSearcher(g)
		var local []hit
		return func(lmID int) {
			local = local[:0]
			s.DistancesWithinReverse(d.Landmarks[lmID].Node, d.cfg.MaxDriveToLandmark,
				func(v roadnet.NodeID, dist float64) bool {
					local = append(local, hit{node: v, lm: int32(lmID), dist: float32(dist)})
					return true
				})
			mu.Lock()
			for _, h := range local {
				cur := d.nodeLandmarkDist[h.node]
				curLM := d.nodeLandmark[h.node]
				if h.dist < cur || (h.dist == cur && (curLM == -1 || h.lm < curLM)) {
					d.nodeLandmarkDist[h.node] = h.dist
					d.nodeLandmark[h.node] = h.lm
				}
			}
			mu.Unlock()
		}
	})
}

// buildGridTable fills the grid tier: every cell's GridInfo, in one dense
// row-major table, the rows shared out over the workers. A worker collects
// a row's walkable lists in one arena it reuses for every row, then gives
// the row one exact-size copy that the row's lists are sub-slices of
// (capped at their length, so a deep size counts each entry once). An
// empty list stays nil.
func (d *Discretization) buildGridTable() {
	rows, cols := int(d.Grid.Rows()), int(d.Grid.Cols())
	d.cells = make([]GridInfo, rows*cols)
	Parallel(rows, func() func(int) {
		var arena []WalkableCluster
		ends := make([]int, cols)
		return func(r int) {
			row := d.cells[r*cols : (r+1)*cols]
			arena = arena[:0]
			for c := range row {
				arena = d.fillGridInfo(&row[c], d.Grid.Cell(int32(r), int32(c)), arena)
				ends[c] = len(arena)
			}
			if len(arena) == 0 {
				return
			}
			own := slices.Clone(arena)
			start := 0
			for c, end := range ends {
				if end > start {
					row[c].Walkable = own[start:end:end]
				}
				start = end
			}
		}
	})
}

// Config returns the build configuration.
func (d *Discretization) Config() Config { return d.cfg }

// City returns the underlying road network wrapper.
func (d *Discretization) City() *roadnet.City { return d.city }

// Epsilon returns the measured worst-case intra-cluster landmark distance
// — the paper's ε. It is guaranteed ≤ 4δ.
func (d *Discretization) Epsilon() float64 { return d.epsilon }

// NumClusters returns the number of clusters.
func (d *Discretization) NumClusters() int { return len(d.Clusters) }

// ClusterOfLandmark maps a landmark ID to its cluster.
func (d *Discretization) ClusterOfLandmark(lm int) int { return d.landmarkCluster[lm] }

// LandmarkDist returns the directed driving distance from landmark a to
// landmark b to a unit of the longest landmark distance / 65 535: within
// half a unit of the exact distance (LandmarkTable), 0 from a landmark to
// itself.
func (d *Discretization) LandmarkDist(a, b int) float64 {
	return float64(d.lmQ[a*len(d.Landmarks)+b]) * d.lmUnit
}

// ClusterDist returns the directed distance from cluster a to cluster b:
// the closest landmark pair, per the paper.
func (d *Discretization) ClusterDist(a, b int) float64 { return float64(d.clusterDist[b][a]) }

// ClusterDistsTo returns the table's row for destination cluster b: entry
// a is ClusterDist(a, b). A column of the by-source table is one row
// here, so a caller that reads many clusters' distances to one cluster
// reads one contiguous row. It is the table itself: read it, never write
// it.
func (d *Discretization) ClusterDistsTo(b int) []float32 { return d.clusterDist[b] }

// LandmarkOfNode returns the landmark associated with a road node (the
// one minimizing driving distance node→landmark within Δ) and that
// distance, or (-1, NaN) for nodes with no landmark within Δ.
func (d *Discretization) LandmarkOfNode(v roadnet.NodeID) (int, float64) {
	lm := d.nodeLandmark[v]
	if lm < 0 {
		return -1, math.NaN()
	}
	return int(lm), float64(d.nodeLandmarkDist[v])
}

// ClusterOfNode returns the cluster of the node's landmark, or -1.
func (d *Discretization) ClusterOfNode(v roadnet.NodeID) int {
	lm := d.nodeLandmark[v]
	if lm < 0 {
		return -1
	}
	return d.landmarkCluster[lm]
}

// GridAt maps a point to its grid cell.
func (d *Discretization) GridAt(p geo.Point) grid.ID { return d.Grid.At(p) }

// Info returns the per-grid attributes: a bounds check and an index into
// the table Build filled. It returns nil for grid.Invalid and for any ID
// outside the grid.
func (d *Discretization) Info(id grid.ID) *GridInfo {
	i := d.Grid.Index(id)
	if i < 0 {
		return nil
	}
	return &d.cells[i]
}

// fillGridInfo sets a cell's nearest landmark in gi and appends its
// walkable-cluster list, sorted, to arena.
func (d *Discretization) fillGridInfo(gi *GridInfo, id grid.ID, arena []WalkableCluster) []WalkableCluster {
	centroid := d.Grid.Centroid(id)
	gi.Landmark, gi.DriveDist = -1, math.NaN()

	// Driving association: the grid inherits the assignment of its
	// nearest road node (the grid is 100 m; its traffic enters the
	// network at that node), plus the snap distance.
	node, snap := d.city.Index.Nearest(centroid)
	if node != roadnet.InvalidNode {
		if lm, dist := d.LandmarkOfNode(node); lm >= 0 && dist+snap <= d.cfg.MaxDriveToLandmark {
			gi.Landmark = lm
			gi.DriveDist = dist + snap
		}
	}

	// Walkable clusters: every landmark within W on foot, walking
	// distance = detour factor × haversine, the minimum per cluster (a
	// side has about a dozen: a scan of the list, not a map), sorted
	// ascending. The scanned buckets cover a square of about four times
	// the circle's area. Before its haversine, geo.FlatBound turns a
	// landmark away if it lies beyond the circle, or if it lies beyond
	// its cluster's minimum so far and so cannot lower it. Either way the
	// haversine would have turned it away too, so the lists are those of
	// the plain scan, bit for bit; the haversine's two cosines are
	// computed once for the cell and once per landmark at construction.
	ix := d.lmIndex
	radius := d.cfg.MaxWalk / walkDetourFactor
	cosP := geo.CosLat(centroid)
	flat := geo.NewFlatBound(centroid, ix.Box)
	start := len(arena)
	r0, r1, c0, c1 := ix.Square(centroid, radius)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, lm := range ix.Bucket(r, c) {
				q := d.Landmarks[lm].Point
				if flat.Beyond(q, radius) {
					continue
				}
				cl := d.landmarkCluster[lm]
				var wc *WalkableCluster
				for i := start; i < len(arena); i++ {
					if arena[i].Cluster == cl {
						wc = &arena[i]
						break
					}
				}
				if wc != nil && flat.Beyond(q, wc.Walk/walkDetourFactor) {
					continue
				}
				straight := geo.HaversineCos(centroid, q, cosP, d.lmCos[lm])
				walk := straight * walkDetourFactor
				if straight > radius || walk > d.cfg.MaxWalk {
					continue
				}
				if wc == nil {
					arena = append(arena, WalkableCluster{Cluster: cl, Walk: walk})
				} else if walk < wc.Walk {
					wc.Walk = walk
				}
			}
		}
	}
	slices.SortFunc(arena[start:], func(a, b WalkableCluster) int {
		return cmp.Or(cmp.Compare(a.Walk, b.Walk), cmp.Compare(a.Cluster, b.Cluster))
	})
	return arena
}

// WalkableWithin prunes a grid's walkable-cluster list to the request's
// walking threshold, using the sorted order (linear scan, per §IV).
func (gi *GridInfo) WalkableWithin(limit float64) []WalkableCluster {
	if gi == nil {
		return nil
	}
	end := 0
	for end < len(gi.Walkable) && gi.Walkable[end].Walk <= limit {
		end++
	}
	return gi.Walkable[:end]
}

// NearestLandmarkInCluster returns the landmark of cluster c closest to p
// on foot and the walking distance (straight-line × walkDetourFactor).
// It returns (-1, NaN) for an invalid cluster. Booking uses it to choose
// the concrete pickup/drop-off landmark of a matched cluster.
func (d *Discretization) NearestLandmarkInCluster(p geo.Point, c int) (int, float64) {
	if c < 0 || c >= len(d.Clusters) {
		return -1, math.NaN()
	}
	best, bestD := -1, math.Inf(1)
	for _, lm := range d.Clusters[c].Landmarks {
		if dd := geo.Haversine(p, d.Landmarks[lm].Point); dd < bestD {
			bestD = dd
			best = lm
		}
	}
	if best < 0 {
		return -1, math.NaN()
	}
	return best, bestD * walkDetourFactor
}

// Servable reports whether a point can be served by the system: its grid
// exists and has at least one walkable cluster (or a landmark within Δ).
func (d *Discretization) Servable(p geo.Point) bool {
	gi := d.Info(d.GridAt(p))
	return gi != nil && (gi.Landmark >= 0 || len(gi.Walkable) > 0)
}
