package landmark

import (
	"math"
	"testing"

	"xar/internal/geo"
	"xar/internal/roadnet"
)

func testCity(t *testing.T) *roadnet.City {
	t.Helper()
	city, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(30, 18, 42))
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func TestValidate(t *testing.T) {
	for _, f := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := (Config{MinSeparation: f}).Validate(); err == nil {
			t.Fatalf("separation %v must be rejected", f)
		}
	}
	if err := (Config{MaxLandmarks: -1}).Validate(); err == nil {
		t.Fatal("negative cap must be rejected")
	}
	if err := (Config{MinSeparation: 100}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExtractEmptyGraph(t *testing.T) {
	if _, err := Extract(&roadnet.Graph{}, Config{MinSeparation: 100}); err == nil {
		t.Fatal("empty graph must error")
	}
}

func TestExtractRespectsMinSeparation(t *testing.T) {
	city := testCity(t)
	const f = 400.0
	lms, err := Extract(city.Graph, Config{MinSeparation: f})
	if err != nil {
		t.Fatal(err)
	}
	if len(lms) < 10 {
		t.Fatalf("only %d landmarks extracted", len(lms))
	}
	for i := range lms {
		for j := i + 1; j < len(lms); j++ {
			if d := geo.Haversine(lms[i].Point, lms[j].Point); d < f {
				t.Fatalf("landmarks %d,%d at %.1f m < f=%.0f", i, j, d, f)
			}
		}
	}
}

func TestExtractIsMaximal(t *testing.T) {
	// Every node must either be a landmark or be within f of one:
	// otherwise the greedy filter skipped a legal candidate.
	city := testCity(t)
	const f = 400.0
	lms, err := Extract(city.Graph, Config{MinSeparation: f})
	if err != nil {
		t.Fatal(err)
	}
	g := city.Graph
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Point(roadnet.NodeID(i))
		covered := false
		for _, lm := range lms {
			if geo.Haversine(p, lm.Point) < f {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("node %d not covered by any landmark within f", i)
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	city := testCity(t)
	a, err := Extract(city.Graph, Config{MinSeparation: 300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(city.Graph, Config{MinSeparation: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Node != b[i].Node {
			t.Fatalf("non-deterministic landmark %d: node %d vs %d", i, a[i].Node, b[i].Node)
		}
	}
}

func TestExtractIDsAreDense(t *testing.T) {
	city := testCity(t)
	lms, err := Extract(city.Graph, Config{MinSeparation: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i, lm := range lms {
		if lm.ID != i {
			t.Fatalf("landmark %d has ID %d", i, lm.ID)
		}
	}
}

func TestExtractScoreOrdering(t *testing.T) {
	city := testCity(t)
	lms, err := Extract(city.Graph, Config{MinSeparation: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy extraction in decreasing score order means the sequence of
	// kept scores is non-increasing.
	for i := 1; i < len(lms); i++ {
		if lms[i].Score > lms[i-1].Score+1e-9 {
			t.Fatalf("landmark %d score %.3f > previous %.3f", i, lms[i].Score, lms[i-1].Score)
		}
	}
}

func TestMaxLandmarksCap(t *testing.T) {
	city := testCity(t)
	lms, err := Extract(city.Graph, Config{MinSeparation: 100, MaxLandmarks: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(lms) != 25 {
		t.Fatalf("cap 25 yielded %d landmarks", len(lms))
	}
}

func TestZeroSeparationKeepsAll(t *testing.T) {
	city := testCity(t)
	lms, err := Extract(city.Graph, Config{MinSeparation: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(lms) != city.Graph.NumNodes() {
		t.Fatalf("zero separation kept %d of %d nodes", len(lms), city.Graph.NumNodes())
	}
}

func TestPoints(t *testing.T) {
	city := testCity(t)
	lms, err := Extract(city.Graph, Config{MinSeparation: 500})
	if err != nil {
		t.Fatal(err)
	}
	pts := Points(lms)
	if len(pts) != len(lms) {
		t.Fatal("length mismatch")
	}
	for i := range lms {
		if pts[i] != lms[i].Point {
			t.Fatalf("element %d mismatch", i)
		}
	}
}

func TestLargeSeparationFewLandmarks(t *testing.T) {
	city := testCity(t)
	small, _ := Extract(city.Graph, Config{MinSeparation: 200})
	large, _ := Extract(city.Graph, Config{MinSeparation: 1500})
	if len(large) >= len(small) {
		t.Fatalf("larger f must yield fewer landmarks: f=200→%d, f=1500→%d", len(small), len(large))
	}
}
