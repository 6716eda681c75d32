package discretize

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"xar/internal/geo"
	"xar/internal/grid"
	"xar/internal/roadnet"
)

// buildGolden is the hash of the benchmark-sized discretization (80×44
// city, seed 42, ε = 1000 m), computed at the parent of ISSUE 21 with the
// binary-heap Dijkstra per landmark and the from-scratch GREEDY per probe.
// The kernels that build a region may change; what they build may not.
const buildGolden = "16777a33e071de941df6e9566086c81c96851d793e2d5f49fce8308e1ff86156"

// hashDiscretization folds every table Build derives from shortest paths
// and clustering, bit for bit, the landmark table as the exact kernel
// computes it (LandmarkTable). The cluster table is read through
// ClusterDist in source order, whatever order it is stored in.
func hashDiscretization(t testing.TB, d *Discretization) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	rows := func(m [][]float32) {
		put(uint64(len(m)))
		for _, row := range m {
			put(uint64(len(row)))
			for _, v := range row {
				put(uint64(math.Float32bits(v)))
			}
		}
	}
	rows(exactTable(t, d))
	put(uint64(len(d.landmarkCluster)))
	for _, c := range d.landmarkCluster {
		put(uint64(c))
	}
	put(math.Float64bits(d.epsilon))
	k := d.NumClusters()
	put(uint64(k))
	for a := range k {
		put(uint64(k))
		for b := range k {
			put(uint64(math.Float32bits(float32(d.ClusterDist(a, b)))))
		}
	}
	put(uint64(len(d.nodeLandmark)))
	for i, lm := range d.nodeLandmark {
		put(uint64(uint32(lm)))
		put(uint64(math.Float32bits(d.nodeLandmarkDist[i])))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// residentTableGolden is the hash of the same region's resident landmark
// table, its unit (0.302 m: the longest entry, 19 793 m, / 65 535) and
// every 16-bit entry, computed when the table went from float32 to 16 bits.
// The exact table still hashes into buildGolden.
const residentTableGolden = "f8599da31950ee38740ffbc9f7ed777ebaf1503508ce3bbc67877f40dc5212b4"

// hashLandmarkTable folds the resident landmark table, bit for bit.
func hashLandmarkTable(d *Discretization) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(d.lmUnit))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(len(d.lmQ)))
	h.Write(b[:])
	for _, q := range d.lmQ {
		binary.LittleEndian.PutUint16(b[:], q)
		h.Write(b[:2])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestBuildGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark-sized region")
	}
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(80, 44, 42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Delta = 250 // ε = 1000 m, the benchmark's setting
	// Every parallel stage writes disjoint rows, and GREEDYSEARCH runs
	// beside the node table: the worker count must not show.
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		d, err := Build(city, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Landmarks) != 1701 || d.NumClusters() != 339 {
			t.Errorf("GOMAXPROCS %d: landmarks, clusters = %d, %d, want 1701, 339", procs, len(d.Landmarks), d.NumClusters())
		}
		if got := hashDiscretization(t, d); got != buildGolden {
			t.Errorf("GOMAXPROCS %d: discretization hash = %s, want %s", procs, got, buildGolden)
		}
		if got := hashLandmarkTable(d); got != residentTableGolden {
			t.Errorf("GOMAXPROCS %d: resident landmark table hash = %s, want %s", procs, got, residentTableGolden)
		}
	}
}

// gridInfoGolden is the hash of every cell's GridInfo on the same region
// as buildGolden, computed before NodeIndex.Nearest and the landmark
// bucket scan shared one flat lower bound. The prefilter may skip work;
// it may not change a landmark, a distance or a walkable list.
const gridInfoGolden = "b6c294c754c88d8a8529500858660504f5bc8a649b542d108e9ee6a28c395899"

// hashGridInfo folds every cell's landmark, drive distance and walkable
// clusters, row by row, bit for bit.
func hashGridInfo(d *Discretization, cells []grid.ID) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, id := range cells {
		gi := d.Info(id)
		put(uint64(id))
		put(uint64(int64(gi.Landmark)))
		put(math.Float64bits(gi.DriveDist))
		put(uint64(len(gi.Walkable)))
		for _, wc := range gi.Walkable {
			put(uint64(int64(wc.Cluster)))
			put(math.Float64bits(wc.Walk))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGridInfoGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark-sized region")
	}
	d := benchRegion(t)
	cells := allCells(d)
	if len(cells) != 15290 {
		t.Fatalf("enumerated %d cells, want 15290", len(cells))
	}
	if got := hashGridInfo(d, cells); got != gridInfoGolden {
		t.Errorf("grid info hash = %s, want %s", got, gridInfoGolden)
	}
}

// benchRegion builds the benchmark-sized region of TestBuildGolden.
func benchRegion(tb testing.TB) *Discretization {
	tb.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(80, 44, 42))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Delta = 250
	d, err := Build(city, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkGridTable times the grid tier of the benchmark-sized region:
// the whole table per op at the benchmark's GOMAXPROCS, and per cell
// centroid NodeIndex.Nearest alone and the per-cell oracle the table
// replaced.
func BenchmarkGridTable(b *testing.B) {
	d := benchRegion(b)
	cells := allCells(d)
	b.Run("table", func(b *testing.B) {
		e := *d
		for i := 0; i < b.N; i++ {
			e.buildGridTable()
		}
	})
	b.Run("nearest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.City().Index.Nearest(d.Grid.Centroid(cells[i%len(cells)]))
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			computeGridInfo(d, cells[i%len(cells)])
		}
	})
}

// A landmark the rest cannot drive back from — a cul-de-sac entered by a
// one-way street — leaves +Inf in the landmark matrix, and Build refuses
// the network rather than clustering on it.
func TestBuildRejectsNetworkNotStronglyConnected(t *testing.T) {
	city := testCity(t)
	g, b := city.Graph, &roadnet.Builder{}
	for v := range g.NumNodes() {
		b.AddNode(g.Point(roadnet.NodeID(v)))
	}
	for v := range g.NumNodes() {
		for e, hi := g.Out(roadnet.NodeID(v)); e < hi; e++ {
			a := g.Arc(e)
			if err := b.AddEdge(roadnet.NodeID(v), a.To, a.Length, a.Speed, a.Class); err != nil {
				t.Fatal(err)
			}
		}
	}
	box := g.BBox()
	far := b.AddNode(geo.Point{Lat: box.MaxLat + 0.01, Lng: box.MaxLng + 0.01})
	if err := b.AddEdge(0, far, 0, 8, roadnet.ClassStreet); err != nil {
		t.Fatal(err)
	}
	city.Graph = b.Build()
	city.Index = roadnet.NewNodeIndex(city.Graph, 250)
	_, err := Build(city, DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "not strongly connected") {
		t.Fatalf("Build on a network with a one-way cul-de-sac: err = %v", err)
	}
}
