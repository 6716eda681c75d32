package discretize

import (
	"bytes"
	"testing"

	"xar/internal/roadnet"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	city := testCity(t)
	orig, err := Build(city, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, city)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.NumClusters() != orig.NumClusters() {
		t.Fatalf("clusters %d vs %d", loaded.NumClusters(), orig.NumClusters())
	}
	if loaded.Epsilon() != orig.Epsilon() {
		t.Fatalf("ε %v vs %v", loaded.Epsilon(), orig.Epsilon())
	}
	if len(loaded.Landmarks) != len(orig.Landmarks) {
		t.Fatal("landmark counts differ")
	}
	for i := range orig.Landmarks {
		if loaded.Landmarks[i] != orig.Landmarks[i] {
			t.Fatalf("landmark %d differs", i)
		}
		if loaded.ClusterOfLandmark(i) != orig.ClusterOfLandmark(i) {
			t.Fatalf("landmark %d cluster differs", i)
		}
	}
	// Distance tables survive.
	for i := 0; i < len(orig.Landmarks); i += 7 {
		for j := 0; j < len(orig.Landmarks); j += 11 {
			if loaded.LandmarkDist(i, j) != orig.LandmarkDist(i, j) {
				t.Fatalf("lm dist (%d,%d) differs", i, j)
			}
		}
	}
	for c1 := 0; c1 < orig.NumClusters(); c1++ {
		for c2 := 0; c2 < orig.NumClusters(); c2++ {
			if loaded.ClusterDist(c1, c2) != orig.ClusterDist(c1, c2) {
				t.Fatalf("cluster dist (%d,%d) differs", c1, c2)
			}
		}
	}
	checkClusterDists(t, loaded)
	// The grid table Load rebuilds is Build's, on every cell.
	if len(loaded.cells) != len(orig.cells) {
		t.Fatalf("grid table of %d cells vs %d", len(loaded.cells), len(orig.cells))
	}
	for _, id := range allCells(orig) {
		if a, b := orig.Info(id), loaded.Info(id); !sameGridInfo(a, b) {
			t.Fatalf("grid info differs at cell %v: %+v vs %+v", id, a, b)
		}
	}
}

func TestLoadRejectsWrongGraph(t *testing.T) {
	city := testCity(t)
	orig, err := Build(city, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(24, 14, 99))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, other); err == nil {
		t.Fatal("loading against a different graph must fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	city := testCity(t)
	if _, err := Load(bytes.NewReader([]byte("not a snapshot")), city); err == nil {
		t.Fatal("garbage must be rejected")
	}
}
