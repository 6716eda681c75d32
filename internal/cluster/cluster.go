// Package cluster implements the CLUSTERMINIMIZATION problem of the XAR
// paper (§V): partition a set of landmarks into the minimum number of
// clusters such that every pair of landmarks in a cluster is within a
// driving distance δ.
//
// The problem is NP-complete (Theorem 4: it is minimum clique partition
// on the δ-threshold graph) and ln n hard to approximate in the number of
// clusters (Theorem 5), so the package provides one algorithm,
// GreedySearch: the paper's bicriteria algorithm, with the Theorem 6
// guarantee (k_ALG ≤ k_OPT, max intra-cluster distance ≤ 4δ). It binary
// searches k over log₂ n probes of the radius of Greedy, the Gonzalez
// farthest-point 2-approximation for METRIC K-CENTER. One farthest-first
// traversal answers every probe, since Greedy's centres for k are a
// prefix of its centres for any larger k, and each pass skips the
// distances the triangle inequality rules out.
//
// Greedy itself, an exact minimum clique partition (Exact) and the
// paper's ILP with a branch-and-bound solver are test code: the oracles
// GreedySearch is checked against.
//
// Distances are supplied by a DistFunc, typically landmark-to-landmark
// shortest driving distances symmetrized with max(d(i→j), d(j→i)) so the
// triangle inequality the proofs rely on holds.
package cluster

import (
	"fmt"
	"math"
)

// DistFunc returns the distance between items i and j. It must be a
// metric: symmetric, non-negative, zero on the diagonal, and satisfy the
// triangle inequality (GreedySearch's guarantee depends on it).
type DistFunc func(i, j int) float64

// Result describes a clustering of n items.
type Result struct {
	// K is the number of clusters.
	K int
	// Assign maps each item to its cluster in [0, K).
	Assign []int
	// Centers holds the representative item of each cluster (for results
	// produced via k-center; -1 when not applicable).
	Centers []int
	// Radius is the maximum distance of any item to its assigned center
	// (k-center objective); NaN when not applicable.
	Radius float64
}

// Members returns the items of each cluster, in cluster order.
func (r Result) Members() [][]int {
	out := make([][]int, r.K)
	for i, c := range r.Assign {
		out[c] = append(out[c], i)
	}
	return out
}

// MaxIntra returns the maximum pairwise distance within any cluster — the
// quantity the paper bounds by 4δ (and calls ε). O(n²) but run once per
// pre-processing.
func (r Result) MaxIntra(dist DistFunc) float64 {
	var worst float64
	for _, members := range r.Members() {
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				if d := dist(members[a], members[b]); d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// SearchTrace records one binary-search probe of GreedySearch: the k that
// was tried and the k-center radius δ_k the greedy subroutine achieved.
// The paper's algorithm "returns log₂ n tuples of the form (k', δ_k')".
type SearchTrace struct {
	K      int
	Radius float64
}

// pruneSlack widens the triangle-inequality test in relax by a relative
// margin. The distances the discretization passes are float32
// roundings of float64 path sums, each within a relative η ≈ 2⁻²⁴ of a
// true metric, so a triangle of them may miss by a few parts in 2²⁴.
// Stored values that close to a metric still give dist(c, i) ≥ m once
// dist(a, c) ≥ 2m·(1+η)/(1−η); 2m·pruneSlack covers that for any η up to
// 2⁻²⁰, sixteen times float32's rounding.
const pruneSlack = 1 + 0x1p-19

// RowBound returns, for item c, a row of lower bounds on its distances:
// row[j] ≤ dist(c, j) for every item j. GreedySearchBounded reads it once
// per centre.
type RowBound func(c int) []float32

// traversal is one resumable run of Greedy's farthest-first order. That
// order is deterministic from item 0, so the centres Greedy picks for k
// are the first k of the centres it picks for any larger k, and the
// k-centre radius for every k up to the number of centres held is the
// farthest distance left after the k-th was added.
//
// Each pass evaluates only the distances the triangle inequality leaves
// open (see relax); what it skips could not have moved an item, so
// centres, assignment and radii are Greedy's, bit for bit.
type traversal struct {
	dist    DistFunc
	lower   RowBound  // nil, or the bounds GreedySearchBounded was given
	minDist []float64 // distance to the nearest of centers
	assign  []int     // index in centers of that nearest centre
	centers []int
	radius  []float64 // radius[k-1] is Greedy(n, dist, k).Radius
	next    int       // the item the next centre would be
	done    bool      // every item coincides with a centre: Greedy stops here for any larger k

	// The pass in progress: its centre c, lower(c) (nil without bounds),
	// and gap[a] = dist(c, centers[a]) wherever gapAt[a] == stamp. Each
	// pass takes a new stamp, so gap is never cleared.
	c     int
	row   []float32
	gap   []float64
	gapAt []int
	stamp int
}

func newTraversal(n int, dist DistFunc, lower RowBound) *traversal {
	t := &traversal{
		dist: dist, lower: lower,
		minDist: make([]float64, n), assign: make([]int, n),
		gap: make([]float64, n), gapAt: make([]int, n),
	}
	for i := range t.minDist {
		t.minDist[i] = math.Inf(1)
	}
	return t
}

// probe extends the traversal to k centres if it holds fewer and returns
// what Greedy(n, dist, k) reports as K and Radius.
func (t *traversal) probe(k int) (int, float64) {
	for len(t.centers) < k && !t.done {
		c, ci := t.next, len(t.centers)
		t.centers = append(t.centers, c)
		far, farD := t.relax(ci)
		t.radius = append(t.radius, farD)
		t.next = far
		t.done = farD == 0
	}
	k = min(k, len(t.centers))
	return k, t.radius[k-1]
}

// relax is Greedy's pass for centre number ci: every item strictly nearer
// to it than to its current centre moves to it, and the pass returns the
// item then farthest from its centre, the first on a tie.
//
// It evaluates dist(c, i) only where c might improve on item i's distance
// m to its centre a. By the triangle inequality dist(c, i) ≥ dist(a, c) −
// m, so c cannot when dist(a, c) ≥ 2m. The checks run cheapest first: r,
// a lower bound on dist(a, c) that costs nothing; the row's bound on
// dist(c, i) itself; then dist(a, c) (gapAtLeast). An item at +Inf (no
// finite distance yet) is always evaluated, and NaN proves nothing.
func (t *traversal) relax(ci int) (far int, farD float64) {
	c := t.centers[ci]
	var row []float32
	if t.lower != nil {
		row = t.lower(c)
	}
	t.c, t.row = c, row
	t.stamp++
	// c was the farthest item when it was picked, so every earlier centre
	// is at least radius[ci-1] from it.
	r := 0.0
	if ci > 0 {
		r = t.radius[ci-1]
	}
	far, farD = -1, -1.0
	for i, m := range t.minDist {
		open := !(m < math.Inf(1))
		if !open {
			bound := 2 * m * pruneSlack
			open = bound > r && !(row != nil && float64(row[i]) >= m) && !t.gapAtLeast(t.assign[i], bound)
		}
		if open {
			if d := t.dist(c, i); d < m {
				t.minDist[i] = d
				t.assign[i] = ci
				m = d
			}
		}
		if m > farD {
			farD, far = m, i
		}
	}
	return far, farD
}

// gapAtLeast reports whether dist(c, centers[a]) ≥ bound is certain.
func (t *traversal) gapAtLeast(a int, bound float64) bool {
	if t.gapAt[a] != t.stamp {
		ca := t.centers[a]
		if t.row != nil && float64(t.row[ca]) >= bound {
			return true
		}
		t.gap[a], t.gapAt[a] = t.dist(t.c, ca), t.stamp
	}
	return t.gap[a] >= bound
}

// result returns Greedy(n, dist, k) for a k the traversal has reached.
// When it has gone past k, assignments to later centres are redone by
// relaxing against the first k again — in Greedy's order, so ties fall
// the same way, and pruned the same way, since radius[ci-1] still bounds
// centre ci's distance to every centre before it.
func (t *traversal) result(k int) Result {
	res := Result{K: k, Assign: t.assign, Centers: t.centers[:k:k], Radius: t.radius[k-1]}
	if k == len(t.centers) {
		return res
	}
	for i := range t.minDist {
		t.minDist[i] = math.Inf(1)
	}
	for ci := range res.Centers {
		t.relax(ci)
	}
	return res
}

// GreedySearch is the paper's bicriteria algorithm for
// CLUSTERMINIMIZATION. Given the inter-landmark threshold δ (delta), it
// binary-searches k ∈ [1, n] on Greedy's radius: if the radius for k
// exceeds 2δ the lower half is discarded, otherwise the upper half. The
// smallest probed k whose radius is ≤ 2δ becomes k_ALG, and the Result is
// Greedy(n, dist, k_ALG).
//
// The paper calls Greedy afresh for each of its log₂ n probes. Here one
// farthest-first traversal answers them all: it is extended only when a
// probe asks for more centres than it holds, so the distance evaluations
// are at most n per centre up to the largest k probed, plus n·k_ALG to
// rebuild the assignment when the traversal went past k_ALG. Most are
// skipped: a pass evaluates only the items and centre-to-centre distances
// the triangle inequality leaves open, and the result stays Greedy's, bit
// for bit.
//
// Theorem 6: k_ALG ≤ k_OPT and every pair of items sharing a cluster is
// within 4δ (triangle inequality through the shared center at ≤ 2δ).
//
// The returned trace contains every probe, mirroring the paper's output.
func GreedySearch(n int, dist DistFunc, delta float64) (Result, []SearchTrace, error) {
	return GreedySearchBounded(n, dist, nil, delta)
}

// GreedySearchBounded is GreedySearch given also lower bounds on dist,
// one row per item. Each pass for a new centre c reads lower(c) before it
// evaluates dist, and skips every distance the row alone settles. That
// pays when the rows are much cheaper than dist: for the symmetrized
// metric max(d(i→j), d(j→i)), d(c→·) is one row of the directed table
// where dist reads a column too. A nil lower is GreedySearch.
func GreedySearchBounded(n int, dist DistFunc, lower RowBound, delta float64) (Result, []SearchTrace, error) {
	if n <= 0 {
		return Result{}, nil, fmt.Errorf("cluster: n must be positive, got %d", n)
	}
	if delta < 0 || math.IsNaN(delta) {
		return Result{}, nil, fmt.Errorf("cluster: delta must be >= 0, got %v", delta)
	}

	t := newTraversal(n, dist, lower)
	var trace []SearchTrace
	lo, hi := 1, n
	best := 0 // smallest feasible K seen; 0 = none
	for lo <= hi {
		k := (lo + hi) / 2
		got, radius := t.probe(k)
		trace = append(trace, SearchTrace{K: k, Radius: radius})
		if radius <= 2*delta {
			if best == 0 || got < best {
				best = got
			}
			hi = k - 1
		} else {
			lo = k + 1
		}
	}
	if best == 0 {
		// k = n has radius 0 and the search above ends on it, so nothing
		// feasible means a dist that is no metric (NaN, +Inf). Report
		// that probe and fail unless it holds after all.
		got, radius := t.probe(n)
		trace = append(trace, SearchTrace{K: n, Radius: radius})
		if radius > 2*delta {
			return Result{}, trace, fmt.Errorf("cluster: no feasible clustering found (radius %v > 2δ=%v at k=n)", radius, 2*delta)
		}
		best = got
	}
	return t.result(best), trace, nil
}
