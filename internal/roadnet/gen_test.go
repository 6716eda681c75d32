package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"xar/internal/geo"
)

func genTestCity(t testing.TB, rows, cols int, seed int64) *City {
	t.Helper()
	city, err := GenerateCity(DefaultCityConfig(rows, cols, seed))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func TestGenerateCityValidation(t *testing.T) {
	bad := DefaultCityConfig(1, 10, 1)
	if _, err := GenerateCity(bad); err == nil {
		t.Fatal("1-row lattice must be rejected")
	}
	bad = DefaultCityConfig(10, 10, 1)
	bad.RemoveEdgeFrac = 0.9
	if _, err := GenerateCity(bad); err == nil {
		t.Fatal("RemoveEdgeFrac > 0.5 must be rejected")
	}
}

func TestGenerateCityDeterministic(t *testing.T) {
	c1 := genTestCity(t, 20, 12, 7)
	c2 := genTestCity(t, 20, 12, 7)
	if c1.Graph.NumNodes() != c2.Graph.NumNodes() || c1.Graph.NumEdges() != c2.Graph.NumEdges() {
		t.Fatal("same seed must produce identical networks")
	}
	for i := 0; i < c1.Graph.NumNodes(); i++ {
		if c1.Graph.Point(NodeID(i)) != c2.Graph.Point(NodeID(i)) {
			t.Fatalf("node %d geometry differs between identical seeds", i)
		}
	}
	c3 := genTestCity(t, 20, 12, 8)
	same := true
	for i := 0; i < c1.Graph.NumNodes() && i < c3.Graph.NumNodes(); i++ {
		if c1.Graph.Point(NodeID(i)) != c3.Graph.Point(NodeID(i)) {
			same = false
			break
		}
	}
	if same && c1.Graph.NumNodes() == c3.Graph.NumNodes() {
		t.Fatal("different seeds should perturb geometry")
	}
}

func TestCityStronglyConnected(t *testing.T) {
	city := genTestCity(t, 25, 15, 3)
	g := city.Graph
	s := NewSearcher(g)
	// Sample node pairs; every pair must be mutually reachable because the
	// two-way avenues form a strongly connected spine.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := NodeID(r.Intn(g.NumNodes()))
		b := NodeID(r.Intn(g.NumNodes()))
		if !s.ShortestPath(a, b).Reachable() {
			t.Fatalf("%d→%d unreachable", a, b)
		}
		if !s.ShortestPath(b, a).Reachable() {
			t.Fatalf("%d→%d unreachable", b, a)
		}
	}
}

func TestCityDrivingExceedsStraightLine(t *testing.T) {
	city := genTestCity(t, 25, 15, 3)
	g := city.Graph
	s := NewSearcher(g)
	r := rand.New(rand.NewSource(2))
	exceeds := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		a := NodeID(r.Intn(g.NumNodes()))
		b := NodeID(r.Intn(g.NumNodes()))
		if a == b {
			continue
		}
		res := s.ShortestPath(a, b)
		straight := geo.Haversine(g.Point(a), g.Point(b))
		if res.Dist < straight-1 {
			t.Fatalf("driving %v < straight line %v", res.Dist, straight)
		}
		if res.Dist > straight*1.05 {
			exceeds++
		}
	}
	// One-ways and the lattice force real detours for most pairs.
	if exceeds < trials/3 {
		t.Fatalf("only %d/%d pairs show a driving detour; one-ways ineffective?", exceeds, trials)
	}
}

func TestCityOneWayAsymmetry(t *testing.T) {
	city := genTestCity(t, 25, 15, 3)
	g := city.Graph
	s := NewSearcher(g)
	r := rand.New(rand.NewSource(5))
	asym := 0
	for i := 0; i < 80; i++ {
		a := NodeID(r.Intn(g.NumNodes()))
		b := NodeID(r.Intn(g.NumNodes()))
		if a == b {
			continue
		}
		dab := s.ShortestPath(a, b).Dist
		dba := s.ShortestPath(b, a).Dist
		if math.Abs(dab-dba) > 1 {
			asym++
		}
	}
	if asym == 0 {
		t.Fatal("no asymmetric pairs found; one-way streets not effective")
	}
}

func TestSnapToNode(t *testing.T) {
	city := genTestCity(t, 20, 12, 4)
	g := city.Graph
	for i := 0; i < g.NumNodes(); i += 17 {
		p := g.Point(NodeID(i))
		n, d := city.SnapToNode(p)
		if n != NodeID(i) && d > 1 {
			t.Fatalf("snapping a node's own location found node %d at %.2f m", n, d)
		}
	}
	// A point halfway between two intersections snaps to something nearby.
	box := g.BBox()
	center := box.Center()
	n, d := city.SnapToNode(center)
	if n == InvalidNode || d > 300 {
		t.Fatalf("snap of region center: node %d at %.1f m", n, d)
	}
}

func TestNodeIndexNearestMatchesBruteForce(t *testing.T) {
	city := genTestCity(t, 15, 10, 6)
	g := city.Graph
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		p := city.RandomPoint(r)
		gotN, gotD := city.Index.Nearest(p)
		bestD := math.Inf(1)
		for i := 0; i < g.NumNodes(); i++ {
			if d := geo.Haversine(p, g.Point(NodeID(i))); d < bestD {
				bestD = d
			}
		}
		// The flat prefilter skips only nodes the haversine would turn
		// away, so the distance is the brute force's to the bit.
		if math.Float64bits(gotD) != math.Float64bits(bestD) {
			t.Fatalf("nearest(%v) = node %d at %.3f, brute force %.3f", p, gotN, gotD, bestD)
		}
	}
}

// The ring walk reaches max(Rows, Cols) rings from the query's cell: on
// the 24×14 city's 14×18 bucket grid a point 0.01° (1.1 km) north of the
// graph's north-west corner still finds the corner's node, and one 0.1°
// (11 km) north finds none.
func TestNearestRingBound(t *testing.T) {
	city := genTestCity(t, 24, 14, 42)
	box := city.Graph.BBox()
	n, d := city.Index.Nearest(geo.Point{Lat: box.MaxLat + 0.01, Lng: box.MinLng})
	if n != 322 || math.Round(d) != 1124 {
		t.Errorf("0.01° north: node %d at %.1f m, want node 322 at 1 124 m", n, d)
	}
	n, d = city.Index.Nearest(geo.Point{Lat: box.MaxLat + 0.1, Lng: box.MinLng})
	if n != InvalidNode || !math.IsInf(d, 1) {
		t.Errorf("0.1° north: node %d at %v m, want InvalidNode at +Inf", n, d)
	}
}

func TestEmptyGraphNearest(t *testing.T) {
	g := &Builder{}
	g.AddNode(geo.Point{Lat: 40.7, Lng: -74})
	idx := NewNodeIndex(g.Build(), 250)
	if n, _ := idx.Nearest(geo.Point{Lat: 40.7, Lng: -74}); n != 0 {
		t.Fatalf("single-node graph nearest = %d", n)
	}
}

func TestCityBlockDimensions(t *testing.T) {
	city := genTestCity(t, 20, 12, 4)
	cfg := city.Config
	box := city.Graph.BBox()
	wantH := float64(cfg.Rows-1) * streetSpacing
	wantW := float64(cfg.Cols-1) * avenueSpacing
	if math.Abs(box.HeightMeters()-wantH) > 3*jitter+10 {
		t.Fatalf("city height %.0f m, want ~%.0f m", box.HeightMeters(), wantH)
	}
	if math.Abs(box.WidthMeters()-wantW) > 3*jitter+10 {
		t.Fatalf("city width %.0f m, want ~%.0f m", box.WidthMeters(), wantW)
	}
}
