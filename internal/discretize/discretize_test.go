package discretize

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"xar/internal/geo"
	"xar/internal/grid"
	"xar/internal/roadnet"
)

func testCity(t testing.TB) *roadnet.City {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 42))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func testDisc(t testing.TB) *Discretization {
	t.Helper()
	d, err := Build(testCity(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{GridCellSize: 0, Delta: 1, MaxDriveToLandmark: 1, WalkDetourFactor: 1},
		{GridCellSize: 100, Delta: 0, MaxDriveToLandmark: 1, WalkDetourFactor: 1},
		{GridCellSize: 100, Delta: 1, MaxDriveToLandmark: 0, WalkDetourFactor: 1},
		{GridCellSize: 100, Delta: 1, MaxDriveToLandmark: 1, WalkDetourFactor: 0.5},
		{GridCellSize: 100, Delta: 1, MaxDriveToLandmark: 1, WalkDetourFactor: 1, MaxWalk: -1},
		{GridCellSize: 100, Delta: 1, MaxDriveToLandmark: 1, WalkDetourFactor: 1, LandmarkMinSep: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config %+v should be invalid", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Every float field rejects NaN and ±Inf by name: NaN passed every
// comparison Validate made, so -f NaN built a region with no minimum
// landmark separation and -walk NaN one in which nothing was servable.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"GridCellSize", func(c *Config, v float64) { c.GridCellSize = v }},
		{"LandmarkMinSep", func(c *Config, v float64) { c.LandmarkMinSep = v }},
		{"Delta", func(c *Config, v float64) { c.Delta = v }},
		{"MaxDriveToLandmark", func(c *Config, v float64) { c.MaxDriveToLandmark = v }},
		{"MaxWalk", func(c *Config, v float64) { c.MaxWalk = v }},
		{"WalkDetourFactor", func(c *Config, v float64) { c.WalkDetourFactor = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			f.set(&cfg, v)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: err = %v, want an error naming the field", f.name, v, err)
			}
			if _, err := Build(&roadnet.City{Graph: &roadnet.Graph{}}, cfg); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("Build with %s = %v: err = %v, want the Validate error", f.name, v, err)
			}
		}
	}
}

func TestBuildRejectsEmptyGraph(t *testing.T) {
	city := &roadnet.City{Graph: &roadnet.Graph{}}
	if _, err := Build(city, DefaultConfig()); err == nil {
		t.Fatal("empty network must be rejected")
	}
}

func TestEpsilonGuarantee(t *testing.T) {
	d := testDisc(t)
	if d.Epsilon() > 4*d.Config().Delta+1e-6 {
		t.Fatalf("measured ε=%.1f exceeds 4δ=%.1f", d.Epsilon(), 4*d.Config().Delta)
	}
	if d.NumClusters() < 2 {
		t.Fatalf("only %d clusters", d.NumClusters())
	}
}

func TestEveryLandmarkInExactlyOneCluster(t *testing.T) {
	d := testDisc(t)
	count := make([]int, len(d.Landmarks))
	for _, c := range d.Clusters {
		for _, lm := range c.Landmarks {
			count[lm]++
		}
	}
	for lm, n := range count {
		if n != 1 {
			t.Fatalf("landmark %d appears in %d clusters", lm, n)
		}
		if d.ClusterOfLandmark(lm) < 0 || d.ClusterOfLandmark(lm) >= d.NumClusters() {
			t.Fatalf("landmark %d maps to cluster %d", lm, d.ClusterOfLandmark(lm))
		}
	}
	// ClusterOfLandmark agrees with membership lists.
	for _, c := range d.Clusters {
		for _, lm := range c.Landmarks {
			if d.ClusterOfLandmark(lm) != c.ID {
				t.Fatalf("landmark %d membership disagrees with assignment", lm)
			}
		}
	}
}

func TestIntraClusterDistanceWithinEpsilon(t *testing.T) {
	d := testDisc(t)
	for _, c := range d.Clusters {
		for i, a := range c.Landmarks {
			for _, b := range c.Landmarks[i+1:] {
				dd := math.Max(d.LandmarkDist(a, b), d.LandmarkDist(b, a))
				if dd > d.Epsilon()+1e-6 {
					t.Fatalf("cluster %d: landmarks %d,%d at %.1f > ε=%.1f", c.ID, a, b, dd, d.Epsilon())
				}
			}
		}
	}
}

func TestLandmarkDistanceTriangle(t *testing.T) {
	d := testDisc(t)
	r := rand.New(rand.NewSource(1))
	n := len(d.Landmarks)
	for trial := 0; trial < 200; trial++ {
		a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
		if d.LandmarkDist(a, b) > d.LandmarkDist(a, c)+d.LandmarkDist(c, b)+1e-3 {
			t.Fatalf("triangle violated: d(%d,%d)=%v > %v+%v", a, b,
				d.LandmarkDist(a, b), d.LandmarkDist(a, c), d.LandmarkDist(c, b))
		}
	}
	for i := 0; i < n; i++ {
		if d.LandmarkDist(i, i) != 0 {
			t.Fatalf("d(%d,%d) = %v, want 0", i, i, d.LandmarkDist(i, i))
		}
	}
}

func TestClusterDistIsClosestLandmarkPair(t *testing.T) {
	d := testDisc(t)
	r := rand.New(rand.NewSource(2))
	k := d.NumClusters()
	for trial := 0; trial < 30; trial++ {
		c1, c2 := r.Intn(k), r.Intn(k)
		if c1 == c2 {
			continue
		}
		best := math.Inf(1)
		for _, a := range d.Clusters[c1].Landmarks {
			for _, b := range d.Clusters[c2].Landmarks {
				if dd := d.LandmarkDist(a, b); dd < best {
					best = dd
				}
			}
		}
		if got := d.ClusterDist(c1, c2); math.Abs(got-best) > 0.5 {
			t.Fatalf("ClusterDist(%d,%d) = %v, brute force %v", c1, c2, got, best)
		}
	}
	if d.ClusterDist(0, 0) != 0 {
		t.Fatal("self cluster distance must be 0")
	}
}

func TestNodeLandmarkAssignment(t *testing.T) {
	d := testDisc(t)
	g := d.City().Graph
	s := roadnet.NewSearcher(g)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		v := roadnet.NodeID(r.Intn(g.NumNodes()))
		lm, dist := d.LandmarkOfNode(v)
		if lm < 0 {
			continue // remote node; legitimate
		}
		// Verify the distance is the true shortest path v→landmark.
		res := s.ShortestPath(v, d.Landmarks[lm].Node)
		if math.Abs(res.Dist-dist) > 0.5 {
			t.Fatalf("node %d landmark dist %.1f, true %.1f", v, dist, res.Dist)
		}
		if dist > d.Config().MaxDriveToLandmark {
			t.Fatalf("node %d assigned landmark at %.1f > Δ", v, dist)
		}
		// No other landmark can be strictly closer (within tolerance):
		// check a sample of other landmarks.
		for probe := 0; probe < 10; probe++ {
			o := r.Intn(len(d.Landmarks))
			ores := s.ShortestPath(v, d.Landmarks[o].Node)
			if ores.Dist < dist-0.5 {
				t.Fatalf("node %d: landmark %d at %.1f beats assigned %d at %.1f",
					v, o, ores.Dist, lm, dist)
			}
		}
	}
}

func TestClusterOfNodeConsistent(t *testing.T) {
	d := testDisc(t)
	g := d.City().Graph
	for v := 0; v < g.NumNodes(); v += 13 {
		lm, _ := d.LandmarkOfNode(roadnet.NodeID(v))
		c := d.ClusterOfNode(roadnet.NodeID(v))
		if lm < 0 {
			if c != -1 {
				t.Fatalf("node %d: no landmark but cluster %d", v, c)
			}
			continue
		}
		if c != d.ClusterOfLandmark(lm) {
			t.Fatalf("node %d: cluster %d != cluster of landmark %d", v, c, lm)
		}
	}
}

func TestGridInfoWalkableSortedAndBounded(t *testing.T) {
	d := testDisc(t)
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		p := d.City().RandomPoint(r)
		gi := d.Info(d.GridAt(p))
		if gi == nil {
			continue
		}
		for i, wc := range gi.Walkable {
			if wc.Walk > d.Config().MaxWalk {
				t.Fatalf("walkable cluster at %.1f > W=%.1f", wc.Walk, d.Config().MaxWalk)
			}
			if i > 0 && wc.Walk < gi.Walkable[i-1].Walk {
				t.Fatal("walkable list not sorted")
			}
			if wc.Cluster < 0 || wc.Cluster >= d.NumClusters() {
				t.Fatalf("walkable cluster ID %d out of range", wc.Cluster)
			}
		}
		// No duplicate clusters.
		seen := map[int]bool{}
		for _, wc := range gi.Walkable {
			if seen[wc.Cluster] {
				t.Fatalf("cluster %d listed twice", wc.Cluster)
			}
			seen[wc.Cluster] = true
		}
	}
}

// TestGridInfoEqualsExhaustiveScan compares the walkable-cluster list of
// every grid of a generated city, entry for entry and bit for bit, with
// the definition computed the long way: a haversine to every landmark,
// the minimum per cluster in a map, a sort. The bucket scan's flat
// lower bound may only skip landmarks the haversine would turn away.
func TestGridInfoEqualsExhaustiveScan(t *testing.T) {
	d := testDisc(t)
	cfg := d.Config()
	cells := allCells(d)
	entries := 0
	for _, id := range cells {
		centroid := d.Grid.Centroid(id)
		byCluster := map[int]float64{}
		for lm, l := range d.Landmarks {
			straight := geo.Haversine(centroid, l.Point)
			walk := straight * cfg.WalkDetourFactor
			if straight > cfg.MaxWalk/cfg.WalkDetourFactor || walk > cfg.MaxWalk {
				continue
			}
			c := d.ClusterOfLandmark(lm)
			if cur, ok := byCluster[c]; !ok || walk < cur {
				byCluster[c] = walk
			}
		}
		want := make([]WalkableCluster, 0, len(byCluster))
		for c, w := range byCluster {
			want = append(want, WalkableCluster{Cluster: c, Walk: w})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Walk != want[j].Walk {
				return want[i].Walk < want[j].Walk
			}
			return want[i].Cluster < want[j].Cluster
		})
		got := d.Info(id).Walkable
		if !slices.Equal(got, want) {
			t.Fatalf("grid %v:\n got  %v\n want %v", id, got, want)
		}
		entries += len(got)
	}
	if entries < len(cells) {
		t.Fatalf("only %d walkable entries over %d grids", entries, len(cells))
	}
}

func TestWalkableWithinPruning(t *testing.T) {
	d := testDisc(t)
	p := d.City().Graph.BBox().Center()
	gi := d.Info(d.GridAt(p))
	if gi == nil || len(gi.Walkable) == 0 {
		t.Skip("center grid has no walkable clusters in this layout")
	}
	full := gi.WalkableWithin(d.Config().MaxWalk)
	if len(full) != len(gi.Walkable) {
		t.Fatalf("full limit keeps %d of %d", len(full), len(gi.Walkable))
	}
	half := gi.WalkableWithin(gi.Walkable[0].Walk)
	if len(half) < 1 {
		t.Fatal("limit equal to nearest walk must keep at least one")
	}
	for _, wc := range half {
		if wc.Walk > gi.Walkable[0].Walk {
			t.Fatal("pruning kept an over-limit cluster")
		}
	}
	if got := gi.WalkableWithin(-1); len(got) != 0 {
		t.Fatal("negative limit must prune everything")
	}
	var nilInfo *GridInfo
	if nilInfo.WalkableWithin(100) != nil {
		t.Fatal("nil info must yield nil")
	}
}

// Info is nil for grid.Invalid and every ID outside the grid, and reads
// the table without allocating.
func TestInfoInvalidGrid(t *testing.T) {
	d := testDisc(t)
	rows, cols := d.Grid.Rows(), d.Grid.Cols()
	last := d.Grid.Cell(rows-1, cols-1)
	for _, id := range []grid.ID{grid.Invalid, -2, last + 1, last + 1<<24, grid.ID(1) << 56} {
		if d.Info(id) != nil {
			t.Fatalf("Info(%d) must be nil", int64(id))
		}
	}
	if d.Info(last) == nil || d.Info(d.Grid.Cell(0, 0)) == nil {
		t.Fatal("the corner cells must have info")
	}
	center := d.GridAt(d.City().Graph.BBox().Center())
	if allocs := testing.AllocsPerRun(100, func() { d.Info(center) }); allocs != 0 {
		t.Fatalf("Info allocates %v per call", allocs)
	}
}

func TestInfoConcurrent(t *testing.T) {
	d := testDisc(t)
	r := rand.New(rand.NewSource(5))
	pts := make([]geo.Point, 64)
	for i := range pts {
		pts[i] = d.City().RandomPoint(r)
	}
	var wg sync.WaitGroup
	results := make([][]*GridInfo, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = make([]*GridInfo, len(pts))
			for i, p := range pts {
				results[w][i] = d.Info(d.GridAt(p))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range pts {
			if results[w][i] != results[0][i] {
				t.Fatalf("non-canonical GridInfo for point %d", i)
			}
		}
	}
}

func TestServable(t *testing.T) {
	d := testDisc(t)
	center := d.City().Graph.BBox().Center()
	if !d.Servable(center) {
		t.Fatal("city center must be servable")
	}
	if d.Servable(geo.Point{Lat: 10, Lng: 10}) {
		t.Fatal("a point on another continent must not be servable")
	}
}

func TestSmallerDeltaMoreClusters(t *testing.T) {
	city := testCity(t)
	cfgSmall := DefaultConfig()
	cfgSmall.Delta = 150
	cfgLarge := DefaultConfig()
	cfgLarge.Delta = 700
	dSmall, err := Build(city, cfgSmall)
	if err != nil {
		t.Fatal(err)
	}
	dLarge, err := Build(city, cfgLarge)
	if err != nil {
		t.Fatal(err)
	}
	if dSmall.NumClusters() <= dLarge.NumClusters() {
		t.Fatalf("δ=150 → %d clusters, δ=700 → %d; want inverse relation",
			dSmall.NumClusters(), dLarge.NumClusters())
	}
}

func TestBuildDeterministic(t *testing.T) {
	city := testCity(t)
	d1, err := Build(city, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Build(city, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d1.NumClusters() != d2.NumClusters() || len(d1.Landmarks) != len(d2.Landmarks) {
		t.Fatal("build must be deterministic")
	}
	for i := range d1.Landmarks {
		if d1.ClusterOfLandmark(i) != d2.ClusterOfLandmark(i) {
			t.Fatalf("landmark %d cluster differs across builds", i)
		}
	}
}
