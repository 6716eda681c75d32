package discretize

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"xar/internal/geo"
	"xar/internal/roadnet"
)

// buildGolden is the hash of the benchmark-sized discretization (80×44
// city, seed 42, ε = 1000 m), computed at the parent of ISSUE 21 with the
// binary-heap Dijkstra per landmark and the from-scratch GREEDY per probe.
// The kernels that build a region may change; what they build may not.
const buildGolden = "16777a33e071de941df6e9566086c81c96851d793e2d5f49fce8308e1ff86156"

// hashDiscretization folds every table Build derives from shortest paths
// and clustering, bit for bit.
func hashDiscretization(d *Discretization) string {
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
	rows(d.lmDist)
	put(uint64(len(d.landmarkCluster)))
	for _, c := range d.landmarkCluster {
		put(uint64(c))
	}
	put(math.Float64bits(d.epsilon))
	rows(d.clusterDist)
	put(uint64(len(d.nodeLandmark)))
	for i, lm := range d.nodeLandmark {
		put(uint64(uint32(lm)))
		put(uint64(math.Float32bits(d.nodeLandmarkDist[i])))
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
	d, err := Build(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Landmarks) != 1701 || d.NumClusters() != 339 {
		t.Errorf("landmarks, clusters = %d, %d, want 1701, 339", len(d.Landmarks), d.NumClusters())
	}
	if got := hashDiscretization(d); got != buildGolden {
		t.Errorf("discretization hash = %s, want %s", got, buildGolden)
	}
}

// A landmark the rest cannot drive back from — a cul-de-sac entered by a
// one-way street — leaves +Inf in the landmark matrix, and Build refuses
// the network rather than clustering on it.
func TestBuildRejectsNetworkNotStronglyConnected(t *testing.T) {
	city := testCity(t)
	g := city.Graph
	box := g.BBox()
	far := g.AddNode(geo.Point{Lat: box.MaxLat + 0.01, Lng: box.MaxLng + 0.01})
	if err := g.AddEdge(0, far, 0, 8, roadnet.ClassStreet); err != nil {
		t.Fatal(err)
	}
	city.Index = roadnet.NewNodeIndex(g, 250)
	_, err := Build(city, DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "not strongly connected") {
		t.Fatalf("Build on a network with a one-way cul-de-sac: err = %v", err)
	}
}
