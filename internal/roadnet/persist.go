package roadnet

import (
	"hash/fnv"
	"math"
)

// Fingerprint hashes the graph's structure and geometry. Artifacts built
// on top of a graph (the discretization) embed it so loading against a
// different graph fails fast instead of corrupting distances.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeF := func(f float64) {
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	writeF(float64(g.NumNodes()))
	writeF(float64(g.NumEdges()))
	for _, p := range g.pts {
		writeF(p.Lat)
		writeF(p.Lng)
	}
	for from, edges := range g.out {
		for _, e := range edges {
			writeF(float64(from))
			writeF(float64(e.To))
			writeF(e.Length)
		}
	}
	return h.Sum64()
}
