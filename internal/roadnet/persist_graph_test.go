package roadnet

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

// graphArtifact saves a small city and returns it with its snapshot.
func graphArtifact(t testing.TB) (*Graph, graphSnapshot) {
	t.Helper()
	g := genTestCity(t, 8, 6, 2).Graph
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap graphSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return g, snap
}

func encodeSnapshot(t testing.TB, snap graphSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shortEdgeSnapshot returns snap with edge 0 a tenth of its length: well
// under the straight line between its endpoints.
func shortEdgeSnapshot(snap graphSnapshot) graphSnapshot {
	snap.Length = append([]float64(nil), snap.Length...)
	snap.Length[0] /= 10
	return snap
}

// TestLoadGraphRejectsEdgeShorterThanChord: a snapshot whose explicit
// edge length undercuts the straight line would load into a graph on
// which A* and ALT silently stop being exact, so Load must call it
// corrupt. The untouched snapshot loads with its coordinate table
// filled (the searches on it are exact).
func TestLoadGraphRejectsEdgeShorterThanChord(t *testing.T) {
	g, snap := graphArtifact(t)
	_, err := LoadGraph(bytes.NewReader(encodeSnapshot(t, shortEdgeSnapshot(snap))))
	if err == nil || !strings.Contains(err.Error(), "corrupt snapshot") || !strings.Contains(err.Error(), "straight line") {
		t.Fatalf("short edge must be rejected as a corrupt snapshot, got %v", err)
	}

	loaded, err := LoadGraph(bytes.NewReader(encodeSnapshot(t, snap)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != g.Fingerprint() {
		t.Fatal("fingerprint changed across save/load")
	}
	checkExactFrom(t, loaded, 0)
}

// checkExactFrom compares A* against Dijkstra from src to every node.
func checkExactFrom(t *testing.T, g *Graph, src NodeID) {
	t.Helper()
	s := NewSearcher(g)
	want := NewSearcher(g).DistancesToAll(src, nil)
	for v := range want {
		if got := s.ShortestPath(src, NodeID(v)); got.Dist != want[v] {
			t.Fatalf("%d→%d: A* %v, Dijkstra %v", src, v, got.Dist, want[v])
		}
	}
}

// FuzzLoadGraph feeds arbitrary bytes to the graph reader: it must never
// panic, and on anything it accepts A* must still be exact — the
// heuristic's precondition is part of what Load validates.
func FuzzLoadGraph(f *testing.F) {
	_, snap := graphArtifact(f)
	valid := encodeSnapshot(f, snap)
	f.Add(valid)
	f.Add(encodeSnapshot(f, shortEdgeSnapshot(snap)))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := LoadGraph(bytes.NewReader(data))
		if err != nil || g.NumNodes() == 0 {
			return
		}
		checkExactFrom(t, g, 0)
	})
}
