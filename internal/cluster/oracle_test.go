package cluster

// The test oracles for GreedySearch: the paper's GREEDY, run afresh for
// one k, and an exact minimum clique partition. ilp_test.go holds the
// paper's ILP and a branch-and-bound that solves it.

import (
	"fmt"
	"math"
	"math/bits"
)

// Validate checks structural invariants of a Result against n items:
// every item assigned, cluster indices in range, every cluster non-empty.
func (r Result) Validate(n int) error {
	if len(r.Assign) != n {
		return fmt.Errorf("cluster: assignment covers %d of %d items", len(r.Assign), n)
	}
	seen := make([]bool, r.K)
	for i, c := range r.Assign {
		if c < 0 || c >= r.K {
			return fmt.Errorf("cluster: item %d assigned to cluster %d out of [0,%d)", i, c, r.K)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("cluster: cluster %d is empty", c)
		}
	}
	return nil
}

// Greedy is the Gonzalez farthest-point algorithm for METRIC K-CENTER:
// pick an arbitrary first center (item 0 — deterministic), then k−1 times
// pick the item farthest from its nearest chosen center. It guarantees a
// radius at most twice the optimal k-center radius.
//
// Runs in O(nk) distance evaluations.
func Greedy(n int, dist DistFunc, k int) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("cluster: n must be positive, got %d", n)
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if k > n {
		k = n
	}
	centers := make([]int, 0, k)
	minDist := make([]float64, n) // distance to nearest chosen center
	assign := make([]int, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}

	next := 0 // deterministic first center
	for len(centers) < k {
		c := next
		ci := len(centers)
		centers = append(centers, c)
		// Relax all items against the new center and find the next
		// farthest item in the same pass.
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			if d := dist(c, i); d < minDist[i] {
				minDist[i] = d
				assign[i] = ci
			}
			if minDist[i] > farD {
				farD = minDist[i]
				far = i
			}
		}
		next = far
		if farD == 0 {
			break // all items coincide with chosen centers
		}
	}
	radius := 0.0
	for _, d := range minDist {
		if d > radius {
			radius = d
		}
	}
	return Result{
		K:       len(centers),
		Assign:  assign,
		Centers: centers,
		Radius:  radius,
	}, nil
}

// MaxExactItems bounds the instance size accepted by Exact. The dynamic
// program enumerates subsets (O(3ⁿ) time, O(2ⁿ) space), so 20 items is
// already ~3.5 G operations; tests use ≤ 14.
const MaxExactItems = 20

// Exact solves CLUSTERMINIMIZATION optimally: the minimum number of
// clusters such that every intra-cluster pair is within delta. It is
// exactly minimum clique partition on the δ-threshold graph (Theorem 4 of
// the paper), solved by subset dynamic programming over cliques.
//
// Only use for small n (tests, sanity checks): see MaxExactItems.
func Exact(n int, dist DistFunc, delta float64) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("cluster: n must be positive, got %d", n)
	}
	if n > MaxExactItems {
		return Result{}, fmt.Errorf("cluster: exact solver limited to %d items, got %d", MaxExactItems, n)
	}
	if delta < 0 || math.IsNaN(delta) {
		return Result{}, fmt.Errorf("cluster: delta must be >= 0, got %v", delta)
	}

	// adj[i] = bitmask of items within delta of i (the threshold graph).
	adj := make([]uint32, n)
	for i := 0; i < n; i++ {
		adj[i] |= 1 << i
		for j := i + 1; j < n; j++ {
			if dist(i, j) <= delta {
				adj[i] |= 1 << j
				adj[j] |= 1 << i
			}
		}
	}

	full := uint32(1)<<n - 1
	// isClique[S] — computed incrementally: S is a clique iff S minus its
	// lowest bit is a clique and that bit is adjacent to all of S.
	isClique := make([]bool, full+1)
	isClique[0] = true
	for s := uint32(1); s <= full; s++ {
		low := uint32(bits.TrailingZeros32(s))
		rest := s &^ (1 << low)
		isClique[s] = isClique[rest] && rest&^adj[low] == 0
	}

	// dp[S] = minimum cliques to cover S; choice[S] = the clique used.
	const inf = math.MaxInt32
	dp := make([]int32, full+1)
	choice := make([]uint32, full+1)
	for s := uint32(1); s <= full; s++ {
		dp[s] = inf
		// The lowest uncovered item must be in some clique of the cover:
		// iterate over all subsets of S containing that item.
		low := uint32(1) << uint(bits.TrailingZeros32(s))
		// Enumerate subsets T of S with low ∈ T.
		for t := s; t > 0; t = (t - 1) & s {
			if t&low == 0 || !isClique[t] {
				continue
			}
			if cand := dp[s&^t] + 1; cand < dp[s] {
				dp[s] = cand
				choice[s] = t
			}
		}
	}

	res := Result{Assign: make([]int, n), Radius: math.NaN()}
	for s := full; s > 0; {
		t := choice[s]
		for i := 0; i < n; i++ {
			if t&(1<<i) != 0 {
				res.Assign[i] = res.K
			}
		}
		res.Centers = append(res.Centers, -1)
		res.K++
		s &^= t
	}
	return res, nil
}

// FeasibleK reports whether the items can be partitioned into at most k
// clusters of diameter ≤ delta — a convenience wrapper over Exact used in
// property tests.
func FeasibleK(n int, dist DistFunc, delta float64, k int) (bool, error) {
	res, err := Exact(n, dist, delta)
	if err != nil {
		return false, err
	}
	return res.K <= k, nil
}
