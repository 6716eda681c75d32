package roadnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
)

// chMagic is the header of the persisted CH format; the trailing byte
// is the format version. Bump it on any wire change.
var chMagic = [8]byte{'X', 'A', 'R', 'C', 'H', 'v', '0', '1'}

// noMiddleWire encodes "original edge" in a persisted arc.
const noMiddleWire = ^uint32(0)

// SaveCH serializes a contraction hierarchy: a fixed header (magic +
// graph fingerprint + node/arc/core counts), the rank permutation, then
// the flat arc list. Little-endian, versioned, rejected structurally by
// LoadCH — the CH twin of the discretization artifact, so deployments
// preprocess once per region and ship the file. The core distance
// table is not persisted: it is fully determined by the arcs and
// recomputed on load in milliseconds.
func (ch *CH) SaveCH(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(chMagic[:]); err != nil {
		return err
	}
	var buf [20]byte
	binary.LittleEndian.PutUint64(buf[:8], ch.g.Fingerprint())
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(ch.rank)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(ch.NumArcs()))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(ch.coreK))
	if _, err := bw.Write(buf[:20]); err != nil {
		return err
	}
	for _, r := range ch.rank {
		binary.LittleEndian.PutUint32(buf[:4], uint32(r))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	writeArc := func(from, to, mid NodeID, weight float64) error {
		binary.LittleEndian.PutUint32(buf[:4], uint32(from))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(to))
		midW := noMiddleWire
		if mid != noMiddle {
			midW = uint32(mid)
		}
		binary.LittleEndian.PutUint32(buf[8:12], midW)
		binary.LittleEndian.PutUint64(buf[12:20], math.Float64bits(weight))
		_, err := bw.Write(buf[:20])
		return err
	}
	for v := range ch.rank {
		for i := ch.upOff[v]; i < ch.upOff[v+1]; i++ {
			if err := writeArc(NodeID(v), ch.upTo[i], ch.upX[i].Mid, ch.upW[i]); err != nil {
				return err
			}
		}
	}
	for v := range ch.rank {
		// The down arrays store arc downTo[i]→v; persist it in from→to
		// orientation.
		for i := ch.downOff[v]; i < ch.downOff[v+1]; i++ {
			if err := writeArc(ch.downTo[i], NodeID(v), ch.downX[i].Mid, ch.downW[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadCH deserializes a hierarchy written by SaveCH and binds it to g,
// which must be the graph it was built on (checked by fingerprint).
// Every structural invariant is re-validated — rank permutation, arc
// endpoint bounds, finite positive weights, shortcut middles ranked
// below both endpoints with resolvable constituent arcs — so corrupt or
// truncated input is rejected instead of corrupting later queries.
func LoadCH(r io.Reader, g *Graph) (*CH, error) {
	br := bufio.NewReader(r)
	var head [28]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("roadnet: CH header: %w", err)
	}
	if [8]byte(head[:8]) != chMagic {
		return nil, fmt.Errorf("roadnet: not a CH artifact (bad magic %q)", head[:8])
	}
	fp := binary.LittleEndian.Uint64(head[8:16])
	if got := g.Fingerprint(); got != fp {
		return nil, fmt.Errorf("roadnet: CH artifact built on a different road graph (fingerprint %x, graph %x)", fp, got)
	}
	n := int(binary.LittleEndian.Uint32(head[16:20]))
	m := int(binary.LittleEndian.Uint32(head[20:24]))
	coreK := int(binary.LittleEndian.Uint32(head[24:28]))
	if n != g.NumNodes() {
		return nil, fmt.Errorf("roadnet: corrupt CH artifact: %d nodes for a %d-node graph", n, g.NumNodes())
	}
	if coreK < 1 || coreK > n {
		return nil, fmt.Errorf("roadnet: corrupt CH artifact: core size %d for %d nodes", coreK, n)
	}
	rank := make([]int32, n)
	seen := make([]bool, n)
	var buf [20]byte
	for v := 0; v < n; v++ {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("roadnet: CH rank table: %w", err)
		}
		rv := binary.LittleEndian.Uint32(buf[:4])
		if rv >= uint32(n) || seen[rv] {
			return nil, fmt.Errorf("roadnet: corrupt CH artifact: rank table is not a permutation (node %d → %d)", v, rv)
		}
		seen[rv] = true
		rank[v] = int32(rv)
	}
	ch := &CH{
		g:     g,
		rank:  rank,
		coreK: coreK,
	}
	up := make([][]chArc, n)
	down := make([][]chArc, n)
	for i := 0; i < m; i++ {
		if _, err := io.ReadFull(br, buf[:20]); err != nil {
			return nil, fmt.Errorf("roadnet: CH arc %d/%d: %w", i, m, err)
		}
		from := binary.LittleEndian.Uint32(buf[:4])
		to := binary.LittleEndian.Uint32(buf[4:8])
		midRaw := binary.LittleEndian.Uint32(buf[8:12])
		weight := math.Float64frombits(binary.LittleEndian.Uint64(buf[12:20]))
		if from >= uint32(n) || to >= uint32(n) || from == to {
			return nil, fmt.Errorf("roadnet: corrupt CH artifact: arc %d endpoints %d→%d out of range", i, from, to)
		}
		if !(weight > 0) || math.IsInf(weight, 0) {
			return nil, fmt.Errorf("roadnet: corrupt CH artifact: arc %d weight %v", i, weight)
		}
		mid := noMiddle
		if midRaw != noMiddleWire {
			if midRaw >= uint32(n) {
				return nil, fmt.Errorf("roadnet: corrupt CH artifact: arc %d middle %d out of range", i, midRaw)
			}
			if rank[midRaw] >= rank[from] || rank[midRaw] >= rank[to] {
				return nil, fmt.Errorf("roadnet: corrupt CH artifact: arc %d middle %d not below its endpoints", i, midRaw)
			}
			if int(rank[midRaw]) >= n-coreK {
				return nil, fmt.Errorf("roadnet: corrupt CH artifact: arc %d middle %d inside the uncontracted core", i, midRaw)
			}
			mid = NodeID(midRaw)
			ch.shortcuts++
		}
		a := chArc{Middle: mid, Weight: weight}
		if rank[to] > rank[from] {
			a.To = NodeID(to)
			up[from] = append(up[from], a)
		} else {
			a.To = NodeID(from)
			down[to] = append(down[to], a)
		}
	}
	// setArcs re-validates the deep structure: duplicate arcs, original
	// arcs whose weight is not the graph's edge length, and shortcuts
	// whose middle has no constituent arcs (or whose weight is not
	// their sum) are all rejected — any of them would corrupt query
	// distances or path unpacking.
	if err := ch.setArcs(up, down); err != nil {
		return nil, fmt.Errorf("roadnet: corrupt CH artifact: %w", err)
	}
	ch.finalizeCore()
	return ch, nil
}

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
