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
// cluster-to-cluster distance tables. Per-grid attributes are computed
// lazily and cached, since only a fraction of the implicit 100 m grids is
// ever touched by a workload.
package discretize

import (
	"fmt"
	"math"
	"runtime"
	"sort"
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
	// WalkDetourFactor converts straight-line distance to walking
	// distance (sidewalk detours); 1.0 = pure haversine. Typical: 1.2.
	WalkDetourFactor float64
}

// DefaultConfig returns the paper's parameter choices at the reproduction
// scale: 100 m grids, ε = 1 km (δ = 250 m), Δ = 1 km, W = 1 km.
func DefaultConfig() Config {
	return Config{
		GridCellSize:       100,
		LandmarkMinSep:     200,
		Delta:              250,
		MaxDriveToLandmark: 1000,
		MaxWalk:            1000,
		WalkDetourFactor:   1.2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
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
	case c.WalkDetourFactor < 1:
		return fmt.Errorf("discretize: WalkDetourFactor must be >= 1, got %v", c.WalkDetourFactor)
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
	lmDist          [][]float32 // directed landmark→landmark driving distance
	clusterDist     [][]float32 // directed cluster→cluster distance (min landmark pair)

	// Per-road-node landmark assignment: nearest landmark by driving
	// distance node→landmark within Δ (lowest ID tie-break), or -1.
	nodeLandmark     []int32
	nodeLandmarkDist []float32

	// Measured guarantee: max intra-cluster landmark distance (≤ 4δ).
	epsilon float64

	// Lazy per-grid cache.
	mu        sync.RWMutex
	gridCache map[grid.ID]*GridInfo

	// Landmark spatial buckets for walkable-cluster queries.
	lmIndex *pointBuckets
}

// MeasureMem implements memsize.Measurer. Everything except the lazy
// gridCache is immutable after Build; the whole structure is walked
// under the read lock that guards the cache, which also covers the
// immutable rest for free. The road graph this structure points at is
// reached by the walk too — register the graph first so the shared
// accumulator attributes it separately and this component reports only
// discretization-owned bytes (grids, landmarks, clusters, distance
// tables, grid cache).
func (d *Discretization) MeasureMem(a *memsize.Accumulator) {
	if d == nil {
		return
	}
	d.mu.RLock()
	a.Add(d)
	d.mu.RUnlock()
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

	gs, err := grid.NewSystem(g.BBox().Pad(cfg.MaxWalk+cfg.GridCellSize), cfg.GridCellSize)
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
		gridCache: make(map[grid.ID]*GridInfo),
		lmIndex:   newPointBuckets(landmark.Points(lms), g.BBox().Pad(cfg.MaxWalk+cfg.GridCellSize), cfg.MaxWalk),
	}

	if err := d.computeLandmarkDistances(); err != nil {
		return nil, err
	}
	if err := d.clusterLandmarks(); err != nil {
		return nil, err
	}
	d.computeClusterDistances()
	d.assignNodesToLandmarks()
	return d, nil
}

// computeLandmarkDistances fills lmDist[i][j] = driving distance from
// landmark i to landmark j: one sweep of roadnet's one-to-all kernel per
// landmark, the landmarks shared out over GOMAXPROCS workers. A worker
// owns one Searcher and one distance array for all its sweeps and writes
// each landmark's float32 row straight from that array; rows are disjoint,
// so the workers share nothing they write.
func (d *Discretization) computeLandmarkDistances() error {
	n := len(d.Landmarks)
	g := d.city.Graph
	d.lmDist = make([][]float32, n)

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := roadnet.NewSearcher(g)
			var all []float64
			for i := range jobs {
				all = s.DistancesToAll(d.Landmarks[i].Node, all)
				row := make([]float32, n)
				for j := range row {
					row[j] = float32(all[d.Landmarks[j].Node])
				}
				d.lmDist[i] = row
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, row := range d.lmDist {
		for j, v := range row {
			if math.IsInf(float64(v), 1) {
				return fmt.Errorf("discretize: landmark %d cannot reach landmark %d; network not strongly connected", i, j)
			}
		}
	}
	return nil
}

// clusterLandmarks runs GREEDYSEARCH over the symmetrized landmark
// distances. Symmetrization with max(d(i→j), d(j→i)) preserves the
// triangle inequality that Theorem 6's proof uses, and is conservative:
// the ε it certifies bounds driving distance in both directions.
func (d *Discretization) clusterLandmarks() error {
	n := len(d.Landmarks)
	dist := func(i, j int) float64 {
		a := float64(d.lmDist[i][j])
		b := float64(d.lmDist[j][i])
		if a > b {
			return a
		}
		return b
	}
	res, _, err := cluster.GreedySearch(n, dist, d.cfg.Delta)
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

// computeClusterDistances fills the directed cluster distance table:
// dist(C, C') = min over landmark pairs (a ∈ C, b ∈ C') of the driving
// distance a→b, as the paper defines ("the distance between the closest
// pair of landmarks belonging to the two clusters").
func (d *Discretization) computeClusterDistances() {
	k := len(d.Clusters)
	d.clusterDist = make([][]float32, k)
	for i := 0; i < k; i++ {
		d.clusterDist[i] = make([]float32, k)
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			best := float32(math.Inf(1))
			for _, a := range d.Clusters[i].Landmarks {
				row := d.lmDist[a]
				for _, b := range d.Clusters[j].Landmarks {
					if row[b] < best {
						best = row[b]
					}
				}
			}
			d.clusterDist[i][j] = best
		}
	}
}

// assignNodesToLandmarks computes, for every road node, the landmark
// minimizing the node→landmark driving distance, considering only
// landmarks within Δ. One bounded reverse Dijkstra per landmark (radius
// Δ); ties broken by the lowest landmark ID, the paper's rule.
func (d *Discretization) assignNodesToLandmarks() {
	g := d.city.Graph
	nNodes := g.NumNodes()
	d.nodeLandmark = make([]int32, nNodes)
	d.nodeLandmarkDist = make([]float32, nNodes)
	for i := range d.nodeLandmark {
		d.nodeLandmark[i] = -1
		d.nodeLandmarkDist[i] = float32(math.Inf(1))
	}

	workers := runtime.GOMAXPROCS(0)
	type hit struct {
		node roadnet.NodeID
		lm   int32
		dist float32
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := roadnet.NewSearcher(g)
			var local []hit
			for lmID := range jobs {
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
		}()
	}
	for i := range d.Landmarks {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
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
// landmark b.
func (d *Discretization) LandmarkDist(a, b int) float64 { return float64(d.lmDist[a][b]) }

// ClusterDist returns the directed distance from cluster a to cluster b:
// the closest landmark pair, per the paper.
func (d *Discretization) ClusterDist(a, b int) float64 { return float64(d.clusterDist[a][b]) }

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

// Info returns the per-grid attributes, computing and caching them on
// first use. It returns nil for grid.Invalid.
func (d *Discretization) Info(id grid.ID) *GridInfo {
	if id == grid.Invalid || !d.Grid.Contains(id) {
		return nil
	}
	d.mu.RLock()
	gi, ok := d.gridCache[id]
	d.mu.RUnlock()
	if ok {
		return gi
	}
	gi = d.computeGridInfo(id)
	d.mu.Lock()
	if prev, ok := d.gridCache[id]; ok {
		gi = prev // another goroutine won the race; keep one canonical value
	} else {
		d.gridCache[id] = gi
	}
	d.mu.Unlock()
	return gi
}

// computeGridInfo derives a grid's nearest landmark and walkable-cluster
// list from the node tables and the landmark spatial index.
func (d *Discretization) computeGridInfo(id grid.ID) *GridInfo {
	centroid := d.Grid.Centroid(id)
	gi := &GridInfo{Landmark: -1, DriveDist: math.NaN()}

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

	// Walkable clusters: all landmarks within W straight-line, walking
	// distance = detour factor × haversine, keep the minimum per cluster
	// (a side has about a dozen: a scan of the list, not a map), sort
	// ascending.
	acc := make([]WalkableCluster, 0, 16)
	d.lmIndex.within(centroid, d.cfg.MaxWalk/d.cfg.WalkDetourFactor, func(lmID int, straight float64) {
		walk := straight * d.cfg.WalkDetourFactor
		if walk > d.cfg.MaxWalk {
			return
		}
		c := d.landmarkCluster[lmID]
		for i := range acc {
			if wc := &acc[i]; wc.Cluster == c {
				if walk < wc.Walk {
					wc.Walk = walk
				}
				return
			}
		}
		acc = append(acc, WalkableCluster{Cluster: c, Walk: walk})
	})
	gi.Walkable = make([]WalkableCluster, len(acc)) // cached for good: exact size
	copy(gi.Walkable, acc)
	sort.Slice(gi.Walkable, func(i, j int) bool {
		if gi.Walkable[i].Walk != gi.Walkable[j].Walk {
			return gi.Walkable[i].Walk < gi.Walkable[j].Walk
		}
		return gi.Walkable[i].Cluster < gi.Walkable[j].Cluster
	})
	return gi
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
// on foot and the walking distance (straight-line × WalkDetourFactor).
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
	return best, bestD * d.cfg.WalkDetourFactor
}

// Servable reports whether a point can be served by the system: its grid
// exists and has at least one walkable cluster (or a landmark within Δ).
func (d *Discretization) Servable(p geo.Point) bool {
	gi := d.Info(d.GridAt(p))
	return gi != nil && (gi.Landmark >= 0 || len(gi.Walkable) > 0)
}

// pointBuckets is a tiny uniform bucket index over a fixed point set.
type pointBuckets struct {
	pts        []geo.Point
	box        geo.BBox
	cell       float64
	dLat, dLng float64
	rows, cols int
	buckets    [][]int32
}

func newPointBuckets(pts []geo.Point, box geo.BBox, cellMeters float64) *pointBuckets {
	if cellMeters <= 0 {
		cellMeters = 500
	}
	for _, p := range pts {
		box = box.Extend(p) // within relies on box holding every point
	}
	midLat := (box.MinLat + box.MaxLat) / 2
	b := &pointBuckets{
		pts:  pts,
		box:  box,
		cell: cellMeters,
		dLat: cellMeters / geo.MetersPerDegreeLat(),
		dLng: cellMeters / geo.MetersPerDegreeLng(midLat),
	}
	b.rows = int((box.MaxLat-box.MinLat)/b.dLat) + 2
	b.cols = int((box.MaxLng-box.MinLng)/b.dLng) + 2
	b.buckets = make([][]int32, b.rows*b.cols)
	for i, p := range pts {
		r, c := b.rc(p)
		k := r*b.cols + c
		b.buckets[k] = append(b.buckets[k], int32(i))
	}
	return b
}

func (b *pointBuckets) rc(p geo.Point) (int, int) {
	r := int((p.Lat - b.box.MinLat) / b.dLat)
	c := int((p.Lng - b.box.MinLng) / b.dLng)
	if r < 0 {
		r = 0
	}
	if r >= b.rows {
		r = b.rows - 1
	}
	if c < 0 {
		c = 0
	}
	if c >= b.cols {
		c = b.cols - 1
	}
	return r, c
}

// flatSlack shaves the flat lower bound within rejects points by: for
// coordinate differences under flatMaxDeg degrees, sin x ≥ x·(1 − x²/6)
// costs the bound under 1e-4 of its square, and rounding far less.
const (
	flatSlack  = 2e-4
	flatMaxDeg = 2.0
)

// within calls visit for every point at haversine distance ≤ radius of
// p. The scanned buckets cover a square of about four times the circle's
// area, so most points are turned away by a flat-map distance that costs
// four multiplications and never exceeds the haversine: with x, y half
// the latitude and longitude differences, the haversine distance is
// 2R·asin √(sin²x + cos φ₁ cos φ₂ sin²y) ≥ 2R·√(x² + cos²φ y²)·(1 − max(x,y)²/6)
// for φ the latitude farthest from the equator among p's and the box's
// edges (the box holds every point). A point the bound does not exclude
// gets the haversine as before, so the visited set and its distances are
// those of the plain scan.
func (b *pointBuckets) within(p geo.Point, radius float64, visit func(i int, d float64)) {
	if radius < 0 {
		return
	}
	farLat := math.Max(math.Abs(p.Lat), math.Max(math.Abs(b.box.MinLat), math.Abs(b.box.MaxLat)))
	mLat, mLng := geo.MetersPerDegreeLat(), geo.MetersPerDegreeLng(farLat)
	kLat, kLng := mLat*mLat*(1-flatSlack), mLng*mLng*(1-flatSlack)
	r2 := radius * radius
	span := int(radius/b.cell) + 1
	r0, c0 := b.rc(p)
	for r := r0 - span; r <= r0+span; r++ {
		if r < 0 || r >= b.rows {
			continue
		}
		for c := c0 - span; c <= c0+span; c++ {
			if c < 0 || c >= b.cols {
				continue
			}
			for _, i := range b.buckets[r*b.cols+c] {
				q := b.pts[i]
				dLat, dLng := q.Lat-p.Lat, q.Lng-p.Lng
				if math.Abs(dLat) < flatMaxDeg && math.Abs(dLng) < flatMaxDeg && dLat*dLat*kLat+dLng*dLng*kLng > r2 {
					continue
				}
				if d := geo.Haversine(p, q); d <= radius {
					visit(int(i), d)
				}
			}
		}
	}
}
