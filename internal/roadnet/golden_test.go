package roadnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"xar/internal/geo"
)

// graphHash is the SHA-256 of g: every node's coordinates in ID order,
// then every arc (source, head, length, speed, class) in row order, the
// sources in ID order and each source's arcs in the order they were
// added, all little-endian.
func graphHash(g *Graph) string {
	h := sha256.New()
	for v := 0; v < g.NumNodes(); v++ {
		p := g.Point(NodeID(v))
		put(h, p.Lat, p.Lng)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for e, hi := g.Out(NodeID(v)); e < hi; e++ {
			a := g.Arc(e)
			put(h, int32(v), int32(a.To), a.Length, a.Speed, uint8(a.Class))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func put(h hash.Hash, vs ...any) {
	for _, v := range vs {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
}

// islandGraph is nine nodes on a 3×3 lattice, 150 m by 200 m blocks: a
// component of six (1, 2, 3, 5, 6, 7) joined partly by one-way arcs, with
// a parallel arc 5→2, and an island of three (0, 4, 8) that holds node
// 0, where the component walk starts. Keeping the largest component
// renumbers the six in the walk's visit order, which reads incoming
// arcs as well as outgoing ones.
func islandGraph(t testing.TB) *Graph {
	t.Helper()
	g := &Builder{}
	origin := geo.Point{Lat: 40.7, Lng: -74.0}
	for i := 0; i < 9; i++ {
		p := geo.Destination(origin, 0, float64(i/3)*150)
		g.AddNode(geo.Destination(p, 90, float64(i%3)*200))
	}
	for _, err := range []error{
		g.AddBidirectional(0, 4, 0, 9, ClassAvenue),
		g.AddEdge(1, 2, 0, 6.5, ClassStreet),
		g.AddBidirectional(2, 5, 0, 9, ClassAvenue),
		g.AddEdge(3, 1, 0, 6.5, ClassStreet),
		g.AddEdge(6, 3, 0, 6.5, ClassLane),
		g.AddEdge(3, 7, 0, 6.5, ClassStreet),
		g.AddBidirectional(7, 6, 0, 9, ClassAvenue),
		g.AddEdge(5, 2, 900, 12, ClassHighway),
		g.AddEdge(8, 4, 0, 6.5, ClassStreet),
		g.AddEdge(7, 5, 0, 6.5, ClassStreet),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	sub, _ := g.InducedSubgraph(g.LargestComponent())
	return sub.Build()
}

// TestGenerateCityGolden pins the generated cities and the renumbering
// that keeping the largest component makes, bit for bit: coordinates,
// arcs and their order. A change to the generator, the arcs' layout or
// the component walk's visit order moves a hash.
func TestGenerateCityGolden(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		want       string
	}{
		{24, 14, "1a462fa0e3393386690ff0f17a11c9b6af2eb8806f84a3e8b937e627a68ae6cb"},
		{40, 22, "6b19a348068136432fb740d51b032455b31489b70867f734cc6a1f5ffa9bd5ab"},
		{80, 44, "a352d60350bfd6a7fe6053b446e834064c006947bee6ecfeb7303d5817b2053c"},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.rows, tc.cols), func(t *testing.T) {
			if got := graphHash(genTestCity(t, tc.rows, tc.cols, 42).Graph); got != tc.want {
				t.Errorf("hash %s, want %s", got, tc.want)
			}
		})
	}
	t.Run("island", func(t *testing.T) {
		g := islandGraph(t)
		if g.NumNodes() != 6 || g.NumEdges() != 10 {
			t.Fatalf("%d nodes and %d arcs kept, want 6 and 10", g.NumNodes(), g.NumEdges())
		}
		if got, want := graphHash(g), "be8f445ddcebf04d2e1bb21b2e938ee0957164ac34cbe9e32e1f7ae6d1bf28e8"; got != want {
			t.Errorf("hash %s, want %s", got, want)
		}
	})
}
