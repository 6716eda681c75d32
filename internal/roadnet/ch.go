package roadnet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"xar/internal/memsize"
)

// This file implements contraction hierarchies (CH; Geisberger, Sanders,
// Schultes & Delling 2008) for exact single-pair shortest paths. CH
// trades a preprocessing pass — contracting nodes in importance order
// and inserting shortcut arcs that preserve all shortest distances —
// for queries that are an order of magnitude faster than A*/ALT: a
// bidirectional Dijkstra that only ever moves *upward* in the
// contraction order settles a few dozen nodes where A* settles
// thousands.
//
// The pieces:
//
//   - Ordering: nodes are contracted in a lazy-update priority queue
//     ordered by edge difference (shortcuts added minus arcs removed)
//     plus shortcut count plus deleted-neighbor count — the classic
//     heuristic mix — stratified by a geometric nested-dissection term
//     (see ndStrata) that keeps search cones near sqrt(n) on grid-like
//     networks where purely local scores degenerate. Lazy update
//     re-scores a node only when it reaches the top of the queue,
//     which is both cheap and close to an eager ordering.
//   - Witness search: before inserting shortcut u→w (bypassing v), a
//     bounded Dijkstra from u in the remaining graph (excluding v)
//     looks for a "witness" path of length ≤ the shortcut. Truncating
//     the witness search is always safe: it can only insert redundant
//     shortcuts, never lose a distance.
//   - Core + distance table: contraction stops when min(n, 2048) nodes
//     remain. Contracting the last few separator levels of a road
//     network is where CH goes quadratic — the residual core densifies
//     toward a clique, witness searches crawl, and queries would have
//     to scan those near-clique adjacency lists. Instead the residual
//     core keeps its arcs and gets an exact all-pairs distance table
//     (the residual core preserves all pairwise distances — the CH
//     invariant), turning the whole dense top of the hierarchy into
//     O(|F|·|B|) array lookups per query.
//   - Query: forward search from s over arcs into higher-ranked nodes,
//     backward search from t over the reverses of such arcs, with
//     stall-on-demand pruning; searches stop at core entry points. The
//     best of (ordinary meeting node, table-joined entry pair) gives
//     the exact distance, and shortcut middle-node expansion recovers
//     the full original-graph path.
//
// Storage is struct-of-arrays CSR: the query scans touch only the
// head/weight arrays, while the shortcut-expansion data (middle node
// plus the precomputed flat indices of the two constituent arcs) sits
// in parallel cold arrays consulted only during path unpacking, which
// makes unpacking a chain of O(1) array loads instead of binary
// searches.
//
// The CH is immutable after Build and safe for concurrent queries;
// each goroutine owns a CHSearcher (pooled by the engine), mirroring
// Searcher/ALTSearcher.

// noMiddle marks an arc of the original graph (not a shortcut).
const noMiddle = InvalidNode

// noArc marks an absent constituent-arc index (original arcs).
const noArc = int32(-1)

// chArc is one arc of the search graphs in build/load form, before
// setArcs flattens it into the struct-of-arrays CSR layout. For
// up-arcs To is the arc's head; for down-arcs (stored at the head) To
// is the *tail*, so both directions scan a flat per-node slice.
type chArc struct {
	To     NodeID
	Middle NodeID // contracted node a shortcut bypasses; noMiddle = original edge
	Weight float64
}

// CHConfig tunes preprocessing.
type CHConfig struct {
	// Budget bounds total preprocessing time; Build returns
	// ErrCHBudgetExceeded when the deadline passes mid-contraction.
	// Zero means no budget.
	Budget time.Duration
	// CoreSize is the number of highest-ranked nodes left uncontracted
	// and covered by the exact distance table (0 → min(n, 2048)).
	// Larger cores are empirically faster at every measured size —
	// grid-like networks lack witnesses, so deep contraction drowns in
	// shortcuts while the table answers the dense top in O(1) — but the
	// table grows quadratically (~50 MB at the 2048 cap).
	CoreSize int
}

// ErrCHBudgetExceeded is returned by BuildCH when preprocessing ran out
// of its time budget. Callers fall back to ALT.
var ErrCHBudgetExceeded = fmt.Errorf("roadnet: CH preprocessing budget exceeded")

const (
	// witnessSettleLimit caps the nodes each witness search settles.
	// Lower is faster preprocessing but more (redundant) shortcuts;
	// correctness is unaffected either way.
	witnessSettleLimit = 80
	defaultCoreSize    = 2048
)

// CH is a built contraction hierarchy over a Graph. Immutable; safe for
// concurrent use through per-goroutine CHSearchers.
type CH struct {
	g    *Graph
	rank []int32 // rank[v] = contraction position (higher = more important)

	// The search graphs in struct-of-arrays CSR layout. upTo/upW hold
	// arcs v→w of the augmented graph with rank[w] > rank[v] (scanned
	// by the forward search); downTo/downW hold arcs u→v with
	// rank[u] > rank[v], with To = u (scanned by the backward search).
	// upRank/downRank carry the head's rank so the query's heap pushes
	// and core tests never read the rank array at random; everything
	// path unpacking needs lives in the parallel cold upX/downX arrays.
	upOff    []int32
	downOff  []int32
	upTo     []NodeID
	downTo   []NodeID
	upW      []float64
	downW    []float64
	upRank   []int32
	downRank []int32

	// Unpack data, parallel to upTo/downTo, consolidated per arc so an
	// expansion step is one cache line: the arc weight again, the
	// shortcut middle (noMiddle = original edge), and the flat indices
	// of the two constituent arcs — Lo is from→mid in the down arrays,
	// Hi is mid→to in the up arrays; noArc for originals. Resolved once
	// in setArcs so expansion is pure array chasing.
	upX   []chExp
	downX []chExp

	// The uncontracted core: the coreK highest-ranked nodes, their
	// internal adjacency, and the exact K×K distance table with
	// predecessor links for path reconstruction (row-major by core
	// index; corePar holds the predecessor's core index, -1 at the
	// source or unreachable).
	coreK   int
	coreID  []NodeID    // core index → node
	coreIdx []int32     // node → core index, -1 outside the core
	coreOut [][]coreArc // arcs among core nodes, forward orientation
	coreD   []float64
	corePar []int32

	shortcuts int
	buildTime time.Duration
}

// MeasureMem implements memsize.Measurer. A built CH is immutable, so
// the walk takes no locks; the CSR arrays and the core distance table
// are counted from slice headers via the leaf-type fast path.
func (c *CH) MeasureMem(a *memsize.Accumulator) {
	if c == nil {
		return
	}
	a.Add(c)
}

// chExp is one arc's path-expansion record.
type chExp struct {
	W   float64 // arc weight (duplicated from upW/downW for locality)
	Mid NodeID  // shortcut middle; noMiddle = original edge
	Lo  int32   // constituent from→mid, index into the down arrays
	Hi  int32   // constituent mid→to, index into the up arrays
}

// coreArc is one arc between core nodes, carrying the flat index of the
// underlying search-graph arc so core-walk unpacking reuses the same
// constituent-index machinery.
type coreArc struct {
	To     NodeID
	Weight float64
	Idx    int32 // index into the up (Up=true) or down arrays
	Up     bool
}

// Graph returns the road graph the hierarchy was built on.
func (ch *CH) Graph() *Graph { return ch.g }

// NumShortcuts returns the number of shortcut arcs in the hierarchy.
func (ch *CH) NumShortcuts() int { return ch.shortcuts }

// CoreSize returns the number of uncontracted nodes covered by the
// distance table.
func (ch *CH) CoreSize() int { return ch.coreK }

// NumArcs returns the total arc count of the search graphs (original
// deduplicated arcs plus shortcuts).
func (ch *CH) NumArcs() int { return len(ch.upTo) + len(ch.downTo) }

// setArcs flattens per-node arc lists into the struct-of-arrays CSR
// layout, sorting each node's arcs by head, then resolves every
// shortcut's constituent-arc indices and validates the arcs against
// the graph: duplicate arcs, unresolvable constituents, or an original
// arc whose weight is not the graph's edge length are all structural
// corruption (BuildCH never produces them, so they only trip on
// persisted input).
func (ch *CH) setArcs(up, down [][]chArc) error {
	n := len(up)
	ch.upOff = make([]int32, n+1)
	ch.downOff = make([]int32, n+1)
	nu, nd := 0, 0
	for v := 0; v < n; v++ {
		nu += len(up[v])
		nd += len(down[v])
	}
	ch.upTo = make([]NodeID, 0, nu)
	ch.upW = make([]float64, 0, nu)
	ch.upRank = make([]int32, 0, nu)
	ch.upX = make([]chExp, 0, nu)
	ch.downTo = make([]NodeID, 0, nd)
	ch.downW = make([]float64, 0, nd)
	ch.downRank = make([]int32, 0, nd)
	ch.downX = make([]chExp, 0, nd)
	for v := 0; v < n; v++ {
		sortArcs(up[v])
		sortArcs(down[v])
		for i, a := range up[v] {
			if i > 0 && a.To == up[v][i-1].To {
				return fmt.Errorf("duplicate arc %d→%d", v, a.To)
			}
			ch.upTo = append(ch.upTo, a.To)
			ch.upW = append(ch.upW, a.Weight)
			ch.upRank = append(ch.upRank, ch.rank[a.To])
			ch.upX = append(ch.upX, chExp{W: a.Weight, Mid: a.Middle})
		}
		for i, a := range down[v] {
			if i > 0 && a.To == down[v][i-1].To {
				return fmt.Errorf("duplicate arc %d→%d", a.To, v)
			}
			ch.downTo = append(ch.downTo, a.To)
			ch.downW = append(ch.downW, a.Weight)
			ch.downRank = append(ch.downRank, ch.rank[a.To])
			ch.downX = append(ch.downX, chExp{W: a.Weight, Mid: a.Middle})
		}
		ch.upOff[v+1] = int32(len(ch.upTo))
		ch.downOff[v+1] = int32(len(ch.downTo))
	}
	// Resolve constituents. An arc a→b with middle m decomposes into
	// a→m (a down-arc of m, since m ranks below a) and m→b (an up-arc
	// of m); successful resolution therefore also proves the middle
	// ranks strictly below both endpoints, which is what guarantees
	// expansion terminates. Original arcs must match the graph's
	// (minimum parallel) edge length exactly — the query accumulates
	// Dist from these weights, so this is what keeps Dist equal to
	// PathLength(Path) bitwise.
	resolve := func(from, to, mid NodeID, w float64) (int32, int32, error) {
		if mid == noMiddle {
			if l, ok := ch.g.edgeLength(from, to); !ok || l != w {
				return 0, 0, fmt.Errorf("arc %d→%d weight %v does not match the graph", from, to, w)
			}
			return noArc, noArc, nil
		}
		lo := ch.arcIndex(ch.downOff, ch.downTo, mid, from)
		hi := ch.arcIndex(ch.upOff, ch.upTo, mid, to)
		if lo == noArc || hi == noArc {
			return 0, 0, fmt.Errorf("shortcut %d→%d middle %d has no constituent arcs", from, to, mid)
		}
		if ch.downW[lo]+ch.upW[hi] != w {
			return 0, 0, fmt.Errorf("shortcut %d→%d weight %v does not match its constituents", from, to, w)
		}
		return lo, hi, nil
	}
	for v := 0; v < n; v++ {
		for i := ch.upOff[v]; i < ch.upOff[v+1]; i++ {
			lo, hi, err := resolve(NodeID(v), ch.upTo[i], ch.upX[i].Mid, ch.upW[i])
			if err != nil {
				return err
			}
			ch.upX[i].Lo, ch.upX[i].Hi = lo, hi
		}
		for i := ch.downOff[v]; i < ch.downOff[v+1]; i++ {
			lo, hi, err := resolve(ch.downTo[i], NodeID(v), ch.downX[i].Mid, ch.downW[i])
			if err != nil {
				return err
			}
			ch.downX[i].Lo, ch.downX[i].Hi = lo, hi
		}
	}
	return nil
}

// arcIndex binary-searches node v's slice of a CSR arc array for the
// arc to head, returning its flat index or noArc.
func (ch *CH) arcIndex(off []int32, to []NodeID, v, head NodeID) int32 {
	lo, hi := off[v], off[v+1]
	for lo < hi {
		m := (lo + hi) / 2
		if to[m] < head {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < off[v+1] && to[lo] == head {
		return lo
	}
	return noArc
}

// BuildTime returns how long preprocessing took.
func (ch *CH) BuildTime() time.Duration { return ch.buildTime }

// chBuilder carries the mutable state of preprocessing: the "core"
// graph of not-yet-contracted nodes, which shrinks as nodes contract
// and grows shortcut arcs.
type chBuilder struct {
	g          *Graph
	out        [][]chArc // arcs of the augmented graph, forward
	in         [][]chArc // arcs of the augmented graph, reverse (To = source)
	contracted []bool
	rank       []int32
	delNbr     []int32 // contracted-neighbor count (priority term)
	level      []int32 // hierarchy depth bound (priority term)
	stratum    []int32 // nested-dissection stratum (dominant priority term)

	// Witness-search scratch (one bounded Dijkstra per incoming arc of
	// the node under contraction).
	wdist  []float64
	wstamp []uint32
	wgen   uint32
	wq     pq
}

// BuildCH runs CH preprocessing over g. The graph must be non-empty;
// parallel arcs are deduplicated to their minimum length (which is what
// every shortest-path search effectively uses anyway).
func BuildCH(g *Graph, cfg CHConfig) (*CH, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("roadnet: CH over an empty graph")
	}
	start := time.Now()
	var deadline time.Time
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}
	coreK := cfg.CoreSize
	if coreK <= 0 {
		coreK = defaultCoreSize
	}
	if coreK > n {
		coreK = n
	}
	b := &chBuilder{
		g:          g,
		out:        make([][]chArc, n),
		in:         make([][]chArc, n),
		contracted: make([]bool, n),
		rank:       make([]int32, n),
		delNbr:     make([]int32, n),
		level:      make([]int32, n),
		wdist:      make([]float64, n),
		wstamp:     make([]uint32, n),
	}
	b.stratum = ndStrata(g)
	for v := 0; v < n; v++ {
		for _, e := range g.Out(NodeID(v)) {
			b.addArc(NodeID(v), e.To, e.Length, noMiddle)
		}
	}

	// Initial priorities, then lazy-update contraction: a popped node is
	// re-scored and contracted only if it is still no worse than the new
	// queue head; otherwise it is re-inserted with its fresh score.
	// Contraction stops with coreK nodes left — the residual core.
	var queue pq
	for v := 0; v < n; v++ {
		queue.push(pqItem{node: NodeID(v), prio: b.priority(NodeID(v))})
	}
	order := int32(0)
	stop := int32(n - coreK)
	for order < stop && queue.Len() > 0 {
		it := queue.pop()
		v := it.node
		p := b.priority(v)
		if queue.Len() > 0 && p > queue[0].prio {
			queue.push(pqItem{node: v, prio: p})
			continue
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, fmt.Errorf("%w (contracted %d/%d nodes in %v)",
				ErrCHBudgetExceeded, order, n, time.Since(start).Round(time.Millisecond))
		}
		b.contract(v)
		b.rank[v] = order
		order++
	}
	// Core nodes share the top ranks; their relative order is arbitrary
	// (queries never walk up-arcs inside the core), so assign by node id
	// for determinism.
	for v := 0; v < n; v++ {
		if !b.contracted[v] {
			b.rank[v] = order
			order++
		}
	}

	ch := &CH{
		g:     g,
		rank:  b.rank,
		coreK: coreK,
	}
	up := make([][]chArc, n)
	down := make([][]chArc, n)
	for u := 0; u < n; u++ {
		for _, a := range b.out[u] {
			if a.Middle != noMiddle {
				ch.shortcuts++
			}
			if b.rank[a.To] > b.rank[u] {
				up[u] = append(up[u], a)
			} else {
				down[a.To] = append(down[a.To], chArc{To: NodeID(u), Middle: a.Middle, Weight: a.Weight})
			}
		}
	}
	if err := ch.setArcs(up, down); err != nil {
		return nil, fmt.Errorf("roadnet: CH build produced inconsistent arcs: %w", err)
	}
	// The distance table (one Dijkstra per core node) is the dominant
	// preprocessing cost when little or nothing gets contracted, so the
	// budget covers it too.
	if !deadline.IsZero() && time.Now().After(deadline) {
		return nil, fmt.Errorf("%w (contracted %d/%d nodes in %v)",
			ErrCHBudgetExceeded, order, n, time.Since(start).Round(time.Millisecond))
	}
	ch.finalizeCore()
	ch.buildTime = time.Since(start)
	return ch, nil
}

// finalizeCore derives the core node set from ranks, collects the arcs
// among core nodes, and fills the exact distance/predecessor table with
// one Dijkstra per core node. Shared by BuildCH and LoadCH (the table
// is recomputed on load rather than persisted: it is fully determined
// by the arcs, and K Dijkstras over a few-hundred-node core are
// milliseconds).
func (ch *CH) finalizeCore() {
	n := len(ch.rank)
	coreFloor := int32(n - ch.coreK)
	// Core indices are rank-derived (ci = rank - coreFloor), so the
	// query can compute an entry's table index from the rank it already
	// holds in its heap item, without a random array read.
	ch.coreID = make([]NodeID, ch.coreK)
	ch.coreIdx = make([]int32, n)
	for v := 0; v < n; v++ {
		if ch.rank[v] >= coreFloor {
			ci := ch.rank[v] - coreFloor
			ch.coreIdx[v] = ci
			ch.coreID[ci] = NodeID(v)
		} else {
			ch.coreIdx[v] = -1
		}
	}
	k := len(ch.coreID)
	// Core arcs: every arc between two core nodes appears either in
	// up[u] (head ranked above u) or in down[w] (tail ranked above w).
	ch.coreOut = make([][]coreArc, k)
	for ci, v := range ch.coreID {
		for i := ch.upOff[v]; i < ch.upOff[v+1]; i++ {
			if ch.coreIdx[ch.upTo[i]] >= 0 {
				ch.coreOut[ci] = append(ch.coreOut[ci], coreArc{To: ch.upTo[i], Weight: ch.upW[i], Idx: i, Up: true})
			}
		}
	}
	for _, v := range ch.coreID {
		for i := ch.downOff[v]; i < ch.downOff[v+1]; i++ {
			if ui := ch.coreIdx[ch.downTo[i]]; ui >= 0 {
				ch.coreOut[ui] = append(ch.coreOut[ui], coreArc{To: v, Weight: ch.downW[i], Idx: i, Up: false})
			}
		}
	}
	for _, arcs := range ch.coreOut {
		sort.Slice(arcs, func(i, j int) bool { return arcs[i].To < arcs[j].To })
	}
	ch.coreD = make([]float64, k*k)
	ch.corePar = make([]int32, k*k)
	var q pq
	for src := 0; src < k; src++ {
		dist := ch.coreD[src*k : (src+1)*k]
		par := ch.corePar[src*k : (src+1)*k]
		for i := range dist {
			dist[i] = math.Inf(1)
			par[i] = -1
		}
		dist[src] = 0
		q = q[:0]
		q.push(pqItem{node: NodeID(src), prio: 0})
		for q.Len() > 0 {
			it := q.pop()
			ci := it.node
			if it.prio > dist[ci] {
				continue
			}
			for _, a := range ch.coreOut[ci] {
				cj := ch.coreIdx[a.To]
				if nd := dist[ci] + a.Weight; nd < dist[cj] {
					dist[cj] = nd
					par[cj] = int32(ci)
					q.push(pqItem{node: NodeID(cj), prio: nd})
				}
			}
		}
	}
}

// addArc inserts arc u→w (or lowers an existing parallel arc to the new
// weight). Keeping only the minimum parallel arc preserves the shortest-
// path metric and keeps the search graphs small.
func (b *chBuilder) addArc(u, w NodeID, weight float64, middle NodeID) {
	for i := range b.out[u] {
		if b.out[u][i].To == w {
			if weight < b.out[u][i].Weight {
				b.out[u][i].Weight = weight
				b.out[u][i].Middle = middle
				for j := range b.in[w] {
					if b.in[w][j].To == u {
						b.in[w][j].Weight = weight
						b.in[w][j].Middle = middle
						break
					}
				}
			}
			return
		}
	}
	b.out[u] = append(b.out[u], chArc{To: w, Middle: middle, Weight: weight})
	b.in[w] = append(b.in[w], chArc{To: u, Middle: middle, Weight: weight})
}

// priority scores v for the contraction order. The nested-dissection
// stratum dominates (its weight exceeds any achievable local score), so
// contraction proceeds stratum by stratum; within a stratum the classic
// local mix — edge difference, shortcut count, contracted-neighbor
// count, hierarchy depth — spreads contraction uniformly. Lower
// contracts first.
func (b *chBuilder) priority(v NodeID) float64 {
	shortcuts := b.simulate(v, false)
	removed := 0
	for _, a := range b.in[v] {
		if !b.contracted[a.To] {
			removed++
		}
	}
	for _, a := range b.out[v] {
		if !b.contracted[a.To] {
			removed++
		}
	}
	local := chWeightED*(shortcuts-removed) + chWeightSC*shortcuts +
		chWeightDN*int(b.delNbr[v]) + chWeightLV*int(b.level[v])
	return ndStratumWeight*float64(b.stratum[v]) + float64(local)
}

// contract removes v from the core, inserting the shortcuts needed to
// preserve distances among its uncontracted neighbors.
func (b *chBuilder) contract(v NodeID) {
	b.simulate(v, true)
	b.contracted[v] = true
	bump := func(u NodeID) {
		if !b.contracted[u] {
			b.delNbr[u]++
			if b.level[v]+1 > b.level[u] {
				b.level[u] = b.level[v] + 1
			}
		}
	}
	for _, a := range b.in[v] {
		bump(a.To)
	}
	for _, a := range b.out[v] {
		bump(a.To)
	}
}

// simulate walks v's uncontracted in/out neighbor pairs, running one
// witness search per in-neighbor, and either counts the shortcuts a
// contraction would need (insert=false) or inserts them (insert=true).
func (b *chBuilder) simulate(v NodeID, insert bool) int {
	var maxOut float64
	anyOut := false
	for _, a := range b.out[v] {
		if !b.contracted[a.To] {
			anyOut = true
			if a.Weight > maxOut {
				maxOut = a.Weight
			}
		}
	}
	if !anyOut {
		return 0
	}
	count := 0
	for _, ia := range b.in[v] {
		u := ia.To
		if b.contracted[u] {
			continue
		}
		b.witness(u, v, ia.Weight+maxOut)
		for _, oa := range b.out[v] {
			w := oa.To
			if b.contracted[w] || w == u {
				continue
			}
			sc := ia.Weight + oa.Weight
			// A settled witness label is an upper bound on d(u,w)
			// without v; if it already beats the shortcut, skip it.
			if b.wstamp[w] == b.wgen && b.wdist[w] <= sc+1e-9 {
				continue
			}
			count++
			if insert {
				b.addArc(u, w, sc, v)
			}
		}
	}
	return count
}

// witness runs the bounded Dijkstra from u over the uncontracted core
// excluding v, stopping past maxW or after the settle cap.
func (b *chBuilder) witness(u, v NodeID, maxW float64) {
	b.wgen++
	if b.wgen == 0 {
		for i := range b.wstamp {
			b.wstamp[i] = 0
		}
		b.wgen = 1
	}
	b.wq = b.wq[:0]
	b.wdist[u] = 0
	b.wstamp[u] = b.wgen
	b.wq.push(pqItem{node: u, prio: 0})
	settled := 0
	for b.wq.Len() > 0 {
		it := b.wq.pop()
		x := it.node
		if it.prio > b.wdist[x]+1e-9 {
			continue
		}
		if it.prio > maxW {
			return
		}
		settled++
		if settled > witnessSettleLimit {
			return
		}
		for _, a := range b.out[x] {
			y := a.To
			if y == v || b.contracted[y] {
				continue
			}
			nd := b.wdist[x] + a.Weight
			if nd > maxW {
				continue
			}
			if b.wstamp[y] != b.wgen || nd < b.wdist[y] {
				b.wstamp[y] = b.wgen
				b.wdist[y] = nd
				b.wq.push(pqItem{node: y, prio: nd})
			}
		}
	}
}

// Priority-mix weights. The stratum term dominates (ndStratumWeight is
// far above any achievable local score), so contraction proceeds
// stratum by stratum with the local ED/SC/DN/LV mix ordering nodes
// inside each stratum.
const (
	chWeightED      = 4
	chWeightSC      = 1
	chWeightDN      = 2
	chWeightLV      = 3
	ndStratumWeight = 1 << 24
)

// ndLeafSize stops the dissection recursion: regions at or below this
// size form the bottom stratum, ordered purely by the local heuristic.
const ndLeafSize = 24

// ndStrata computes a nested-dissection stratification of the graph
// from its node coordinates: regions are recursively bisected along
// their wider geometric extent, and the nodes covering the cut (one
// endpoint of every crossing edge) form a separator placed in a stratum
// above both halves. Contracting bottom strata first is what keeps
// upward search cones near sqrt(n) on grid-like road networks, where a
// purely local edge-difference order famously degenerates — local
// scores cannot see that a node sits on the only crossing of a region
// boundary. Geometry is a proxy for true graph bisection, but road
// networks are embedded planar-ish graphs, where the two agree closely.
func ndStrata(g *Graph) []int32 {
	n := g.NumNodes()
	stratum := make([]int32, n)
	mark := make([]int32, n)
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	nextMark := int32(1)
	// rec stratifies one region and returns its height: leaf regions are
	// height 0, and a region's separator sits at height 1 + max(halves),
	// strictly above everything inside either half.
	var rec func(reg []NodeID) int32
	rec = func(reg []NodeID) int32 {
		if len(reg) <= ndLeafSize {
			return 0
		}
		var minLat, maxLat, minLng, maxLng float64
		for i, v := range reg {
			p := g.pts[v]
			if i == 0 {
				minLat, maxLat, minLng, maxLng = p.Lat, p.Lat, p.Lng, p.Lng
				continue
			}
			minLat = math.Min(minLat, p.Lat)
			maxLat = math.Max(maxLat, p.Lat)
			minLng = math.Min(minLng, p.Lng)
			maxLng = math.Max(maxLng, p.Lng)
		}
		byLat := maxLat-minLat >= maxLng-minLng
		sort.Slice(reg, func(i, j int) bool {
			pi, pj := g.pts[reg[i]], g.pts[reg[j]]
			if byLat {
				return pi.Lat < pj.Lat
			}
			return pi.Lng < pj.Lng
		})
		half := reg[:len(reg)/2]
		rest := reg[len(reg)/2:]
		markA, markB := nextMark, nextMark+1
		nextMark += 2
		for _, v := range half {
			mark[v] = markA
		}
		for _, v := range rest {
			mark[v] = markB
		}
		// Separator: nodes of the first half with an arc (either
		// direction) into the second. Removing them cuts every crossing
		// edge, so the halves are independent below this stratum.
		crosses := func(v NodeID) bool {
			for _, e := range g.out[v] {
				if mark[e.To] == markB {
					return true
				}
			}
			for _, e := range g.in[v] {
				if mark[e.To] == markB {
					return true
				}
			}
			return false
		}
		interior := half[:0]
		var sep []NodeID
		for _, v := range half {
			if crosses(v) {
				sep = append(sep, v)
			} else {
				interior = append(interior, v)
			}
		}
		hA := rec(interior)
		hB := rec(rest)
		h := 1 + hA
		if hB >= h {
			h = 1 + hB
		}
		for _, v := range sep {
			stratum[v] = h
		}
		return h
	}
	rec(nodes)
	return stratum
}

// rqItem/rq is the rank-ordered work heap of one query direction. The
// upward search graphs are DAGs in rank, so nodes can be processed in
// increasing *rank* order instead of distance order: every in-arc of a
// node comes from a lower rank and is relaxed before the node pops, so
// its label is final at pop time with each node pushed exactly once —
// no duplicate heap entries, no stale pops, and int32 comparisons
// instead of float64.
type rqItem struct {
	rank int32
	node NodeID
}

type rq []rqItem

func (q *rq) push(it rqItem) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].rank <= h[i].rank {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (q *rq) pop() rqItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	*q = h[:last]
	h = h[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		if r := l + 1; r < last && h[r].rank < h[l].rank {
			l = r
		}
		if h[i].rank <= h[l].rank {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return top
}

// chLabel is one node's hot per-query search state — a 16-byte struct,
// four to a cache line, touched by every settle, stall check, and
// relaxation. The parent pointers live in the separate cold chPrev
// array, written only on improvement and read only during unpacking.
type chLabel struct {
	dist  float64
	stamp uint32 // == side.gen when the label is live
}

// chPrev records the arc that set a node's label: the other endpoint
// and the arc's flat index in the side's arc arrays.
type chPrev struct {
	to  NodeID
	idx int32
}

// chEntry is one core entry point reached by a search cone: the node
// and its (rank-derived) index into the core distance table.
type chEntry struct {
	node NodeID
	ci   int32
}

// chSide is one direction of the bidirectional query: distance labels
// with O(1) generation reset, the rank-ordered work heap, the nodes
// reached, and the core entry points.
type chSide struct {
	labels  []chLabel
	prev    []chPrev
	gen     uint32
	queue   rq
	reached []NodeID  // every labeled node (== every processed node)
	entries []chEntry // core nodes reached
}

func (s *chSide) reset() {
	s.gen++
	if s.gen == 0 {
		for i := range s.labels {
			s.labels[i].stamp = 0
		}
		s.gen = 1
	}
	s.queue = s.queue[:0]
	s.reached = s.reached[:0]
	s.entries = s.entries[:0]
}

func (s *chSide) seen(v NodeID) bool { return s.labels[v].stamp == s.gen }

// relax lowers v's label, reporting whether v was newly reached (the
// caller then pushes it — once; later improvements only rewrite the
// label, which is safe because v's rank guarantees it pops after every
// node that can improve it).
func (s *chSide) relax(v NodeID, d float64, from NodeID, idx int32) bool {
	lb := &s.labels[v]
	if lb.stamp != s.gen {
		lb.stamp = s.gen
		lb.dist = d
		s.prev[v] = chPrev{to: from, idx: idx}
		return true
	}
	if d < lb.dist {
		lb.dist = d
		s.prev[v] = chPrev{to: from, idx: idx}
	}
	return false
}

// CHSearcher carries the per-query scratch of CH searches; one per
// goroutine, pooled like Searcher/ALTSearcher. Steady-state queries
// allocate only the returned path.
type CHSearcher struct {
	ch       *CH
	fwd      chSide
	bwd      chSide
	segs     []chSeg  // unpack stack
	coreSeq  []int32  // core-chain scratch (table-joined paths)
	pathBuf  []NodeID // expansion scratch; the result is one exact-size copy
	pathDist float64  // Dist accumulator, filled during expansion
}

// chSeg is one pending arc of the path-unpacking stack: the flat index
// of a search-graph arc (up or down arrays) and the head node it
// expands toward.
type chSeg struct {
	to  NodeID
	idx int32
	up  bool
}

// NewSearcher creates a query context bound to the hierarchy.
func (ch *CH) NewSearcher() *CHSearcher {
	n := ch.g.NumNodes()
	return &CHSearcher{
		ch:  ch,
		fwd: chSide{labels: make([]chLabel, n), prev: make([]chPrev, n)},
		bwd: chSide{labels: make([]chLabel, n), prev: make([]chPrev, n)},
	}
}

// SettledNodes reports how many nodes the last query settled across
// both directions — the quantity CH shrinks. For benchmarks and tests.
func (cs *CHSearcher) SettledNodes() int { return len(cs.fwd.reached) + len(cs.bwd.reached) }

// ShortestPath returns the exact shortest path from source to target,
// identical (up to floating-point association) to Searcher.ShortestPath.
// It drains both upward search cones in rank order with stall-on-demand
// pruning, takes the best meeting node over the (now final) labels,
// joins the core entry points through the distance table, and unpacks
// shortcuts into the original-graph node sequence. Dist is accumulated
// left-to-right over the expanded original arcs, whose weights are
// validated against the graph in setArcs, so Dist always equals
// PathLength(Path) bitwise.
func (cs *CHSearcher) ShortestPath(source, target NodeID) SPResult {
	if source == target {
		return SPResult{Dist: 0, Path: []NodeID{source}}
	}
	ch := cs.ch
	cs.fwd.reset()
	cs.bwd.reset()
	cs.fwd.relax(source, 0, InvalidNode, noArc)
	cs.bwd.relax(target, 0, InvalidNode, noArc)
	cs.fwd.queue.push(rqItem{rank: ch.rank[source], node: source})
	cs.bwd.queue.push(rqItem{rank: ch.rank[target], node: target})
	cs.drain(&cs.fwd, ch.upOff, ch.upTo, ch.upW, ch.upRank, ch.downOff, ch.downTo, ch.downW)
	cs.drain(&cs.bwd, ch.downOff, ch.downTo, ch.downW, ch.downRank, ch.upOff, ch.upTo, ch.upW)

	// Both cones are drained, so every label is final: the best meeting
	// node over the intersection of the reached sets is exact.
	best := math.Inf(1)
	meet := InvalidNode
	for _, v := range cs.fwd.reached {
		if cs.bwd.seen(v) {
			if d := cs.fwd.labels[v].dist + cs.bwd.labels[v].dist; d < best {
				best = d
				meet = v
			}
		}
	}

	// Join the core entry points through the distance table. Entries are
	// sorted by label so both loops break as soon as the labels alone
	// (the table adds ≥ 0) can no longer improve best — the outer loop
	// additionally adds the minimum backward label, which prunes most of
	// the quadratic sweep (and its cache-missing table reads) away.
	k := len(ch.coreID)
	tabX, tabY := int32(-1), int32(-1)
	if len(cs.fwd.entries) > 0 && len(cs.bwd.entries) > 0 {
		sortByDist(cs.fwd.entries, cs.fwd.labels)
		sortByDist(cs.bwd.entries, cs.bwd.labels)
		db0 := cs.bwd.labels[cs.bwd.entries[0].node].dist
		for _, ex := range cs.fwd.entries {
			df := cs.fwd.labels[ex.node].dist
			if df+db0 >= best {
				break
			}
			row := ch.coreD[int(ex.ci)*k : (int(ex.ci)+1)*k]
			for _, ey := range cs.bwd.entries {
				db := cs.bwd.labels[ey.node].dist
				if df+db >= best {
					break
				}
				if d := df + row[ey.ci] + db; d < best {
					best = d
					tabX, tabY = ex.ci, ey.ci
					meet = InvalidNode
				}
			}
		}
	}

	if math.IsInf(best, 1) {
		return SPResult{Dist: math.Inf(1)}
	}
	var path []NodeID
	if meet != InvalidNode {
		path = cs.unpack(source, target, meet)
	} else {
		path = cs.unpackVia(source, target, tabX, tabY)
	}
	return SPResult{Dist: cs.pathDist, Path: path}
}

// drain processes side's entire upward cone in rank order. off/to/w is
// side's search graph (up for forward, down for backward), soff/sto/sw
// the opposite one, used for the stall-on-demand check: a label that an
// opposite-direction arc from a higher-ranked node can improve is
// provably not on a shortest up-down path, so its out-arcs are never
// relaxed (the higher node's label may itself not be final yet, but
// labels only decrease, so the check can only under-prune — never
// wrongly stall). Core nodes are recorded as entry points and not
// expanded — the distance table covers all routing above them.
func (cs *CHSearcher) drain(side *chSide, off []int32, to []NodeID, w []float64, toRank []int32, soff []int32, sto []NodeID, sw []float64) {
	coreFloor := int32(len(cs.ch.rank) - cs.ch.coreK)
	for len(side.queue) > 0 {
		it := side.queue.pop()
		v := it.node
		side.reached = append(side.reached, v)
		if it.rank >= coreFloor {
			side.entries = append(side.entries, chEntry{node: v, ci: it.rank - coreFloor})
			continue
		}
		dv := side.labels[v].dist
		stalled := false
		for i := soff[v]; i < soff[v+1]; i++ {
			if lb := &side.labels[sto[i]]; lb.stamp == side.gen && lb.dist+sw[i] < dv {
				stalled = true
				break
			}
		}
		if stalled {
			continue
		}
		for i := off[v]; i < off[v+1]; i++ {
			u := to[i]
			if side.relax(u, dv+w[i], v, i) {
				side.queue.push(rqItem{rank: toRank[i], node: u})
			}
		}
	}
}

// unpack reconstructs the original-graph node sequence source…target
// when the searches met at an ordinary node, expanding shortcut arcs
// via their precomputed constituent indices.
func (cs *CHSearcher) unpack(source, target, meet NodeID) []NodeID {
	cs.segs = cs.segs[:0]
	cs.appendFwdChain(source, meet)
	cs.appendBwdChain(meet, target)
	return cs.expandSegs(source)
}

// unpackVia reconstructs a table-joined path: forward chain source→
// entry tabX, the core walk tabX→tabY from the predecessor table, then
// the backward chain from exit tabY→target.
func (cs *CHSearcher) unpackVia(source, target NodeID, tabX, tabY int32) []NodeID {
	ch := cs.ch
	cs.segs = cs.segs[:0]
	cs.appendFwdChain(source, ch.coreID[tabX])
	// Core chain entry→exit: walk predecessors from exit back to entry,
	// then emit the core arcs in forward order.
	cs.coreSeq = cs.coreSeq[:0]
	k := int32(len(ch.coreID))
	for cj := tabY; cj != tabX; cj = ch.corePar[tabX*k+cj] {
		cs.coreSeq = append(cs.coreSeq, cj)
	}
	cs.coreSeq = append(cs.coreSeq, tabX)
	for i := len(cs.coreSeq) - 1; i > 0; i-- {
		from, to := cs.coreSeq[i], cs.coreSeq[i-1]
		a := findCoreArc(ch.coreOut[from], ch.coreID[to])
		cs.segs = append(cs.segs, chSeg{to: ch.coreID[to], idx: a.Idx, up: a.Up})
	}
	cs.appendBwdChain(ch.coreID[tabY], target)
	return cs.expandSegs(source)
}

// appendFwdChain pushes the forward search-tree chain source→a (the
// prev pointers walk backward, so the collected segs are reversed in
// place to forward order).
func (cs *CHSearcher) appendFwdChain(source, a NodeID) {
	head := len(cs.segs)
	for v := a; v != source; v = cs.fwd.prev[v].to {
		cs.segs = append(cs.segs, chSeg{to: v, idx: cs.fwd.prev[v].idx, up: true})
	}
	for i, j := head, len(cs.segs)-1; i < j; i, j = i+1, j-1 {
		cs.segs[i], cs.segs[j] = cs.segs[j], cs.segs[i]
	}
}

// appendBwdChain pushes the backward search-tree chain b→target, whose
// prev pointers already walk forward.
func (cs *CHSearcher) appendBwdChain(b, target NodeID) {
	for v := b; v != target; {
		p := cs.bwd.prev[v]
		cs.segs = append(cs.segs, chSeg{to: p.to, idx: p.idx, up: false})
		v = p.to
	}
}

// findCoreArc binary-searches a core adjacency list (sorted by head)
// for the arc to the given head; the predecessor table only ever names
// arcs that exist.
func findCoreArc(arcs []coreArc, to NodeID) coreArc {
	lo, hi := 0, len(arcs)
	for lo < hi {
		m := (lo + hi) / 2
		if arcs[m].To < to {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return arcs[lo]
}

// sortByDist insertion-sorts a small entry list ascending by label.
// Entry lists are a couple dozen nodes, where insertion sort beats
// sort.Slice and allocates nothing.
func sortByDist(entries []chEntry, labels []chLabel) {
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		d := labels[e.node].dist
		j := i - 1
		for j >= 0 && labels[entries[j].node].dist > d {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = e
	}
}

// sortArcs orders an arc list by head for binary search; parallel arcs
// (possible only in hand-crafted or persisted inputs, never from
// BuildCH's deduplicating addArc) keep the minimum weight first so
// lookups find the arc a Dijkstra would have used.
func sortArcs(arcs []chArc) {
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].To != arcs[j].To {
			return arcs[i].To < arcs[j].To
		}
		return arcs[i].Weight < arcs[j].Weight
	})
}

// expandSegs expands the pending seg chain into the original-graph node
// sequence starting at source, accumulating Dist along the way. The
// expansion grows a persistent scratch buffer (its length is unknown
// until shortcuts unfold); the returned path is one exact-size copy.
func (cs *CHSearcher) expandSegs(source NodeID) []NodeID {
	buf := append(cs.pathBuf[:0], source)
	cs.pathDist = 0
	for _, seg := range cs.segs {
		buf = cs.expandArc(buf, seg.up, seg.idx, seg.to)
	}
	cs.pathBuf = buf
	path := make([]NodeID, len(buf))
	copy(path, buf)
	return path
}

// expandArc appends the original-graph nodes of the arc at flat index
// idx (exclusive of its tail, ending at to), recursing into shortcut
// halves via the precomputed constituent indices: lo is the down-array
// tail→middle half, hi the up-array middle→head half. Resolution in
// setArcs proved each middle ranks strictly below both endpoints, so
// the recursion terminates. Original arcs accumulate their weight —
// validated to equal the graph's edge length — into pathDist, in path
// order, which keeps Dist bitwise equal to PathLength.
func (cs *CHSearcher) expandArc(path []NodeID, up bool, idx int32, to NodeID) []NodeID {
	var e *chExp
	if up {
		e = &cs.ch.upX[idx]
	} else {
		e = &cs.ch.downX[idx]
	}
	if e.Mid == noMiddle {
		cs.pathDist += e.W
		return append(path, to)
	}
	path = cs.expandArc(path, false, e.Lo, e.Mid)
	return cs.expandArc(path, true, e.Hi, to)
}
