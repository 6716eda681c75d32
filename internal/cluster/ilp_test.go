package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// ILPModel materializes the paper's integer linear program for
// CLUSTERMINIMIZATION (§V):
//
//	minimize m
//	s.t.  Σ_j y_j ≤ m
//	      x_{i,j} ≤ y_j                        ∀ i ∈ V, j ∈ [n]
//	      Σ_j x_{i,j} = 1                      ∀ i ∈ V
//	      d_{i,i'} (x_{i,j} + x_{i',j} − 1) ≤ δ ∀ i, i' ∈ V, j ∈ [n]
//	      x, y ∈ {0,1}
//
// The model is useful for inspection, for export to external solvers,
// and as the ground-truth statement the exact solvers implement.
type ILPModel struct {
	N     int
	Delta float64
	// Conflicts lists the landmark pairs with d > δ, i.e. the pairs the
	// fourth constraint family forbids from sharing any cluster.
	Conflicts [][2]int
}

// NewILPModel builds the model for an instance.
func NewILPModel(n int, dist DistFunc, delta float64) (*ILPModel, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: n must be positive, got %d", n)
	}
	if delta < 0 || math.IsNaN(delta) {
		return nil, fmt.Errorf("cluster: delta must be >= 0, got %v", delta)
	}
	m := &ILPModel{N: n, Delta: delta}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist(i, j) > delta {
				m.Conflicts = append(m.Conflicts, [2]int{i, j})
			}
		}
	}
	return m, nil
}

// NumVariables returns the variable count: n² assignment variables plus
// n cluster indicators plus the objective m.
func (m *ILPModel) NumVariables() int { return m.N*m.N + m.N + 1 }

// NumConstraints returns the constraint count of the four families.
func (m *ILPModel) NumConstraints() int {
	// 1 (Σy ≤ m) + n² (x ≤ y) + n (Σx = 1) + |conflicts|·n (pair bans).
	return 1 + m.N*m.N + m.N + len(m.Conflicts)*m.N
}

// LPFormat renders the model in CPLEX LP text format, ready for an
// external solver. Only the conflict pairs materialize the distance
// constraints (pairs within δ impose nothing).
func (m *ILPModel) LPFormat() string {
	var b strings.Builder
	b.WriteString("Minimize\n obj: m\nSubject To\n")
	// Σ_j y_j − m ≤ 0
	b.WriteString(" c_count:")
	for j := 0; j < m.N; j++ {
		fmt.Fprintf(&b, " + y%d", j)
	}
	b.WriteString(" - m <= 0\n")
	// x_{i,j} ≤ y_j
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			fmt.Fprintf(&b, " c_open_%d_%d: x%d_%d - y%d <= 0\n", i, j, i, j, j)
		}
	}
	// Σ_j x_{i,j} = 1
	for i := 0; i < m.N; i++ {
		fmt.Fprintf(&b, " c_assign_%d:", i)
		for j := 0; j < m.N; j++ {
			fmt.Fprintf(&b, " + x%d_%d", i, j)
		}
		b.WriteString(" = 1\n")
	}
	// Conflict pairs: x_{i,j} + x_{i',j} ≤ 1
	for _, c := range m.Conflicts {
		for j := 0; j < m.N; j++ {
			fmt.Fprintf(&b, " c_far_%d_%d_%d: x%d_%d + x%d_%d <= 1\n",
				c[0], c[1], j, c[0], j, c[1], j)
		}
	}
	b.WriteString("Binary\n m\n")
	for j := 0; j < m.N; j++ {
		fmt.Fprintf(&b, " y%d\n", j)
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			fmt.Fprintf(&b, " x%d_%d\n", i, j)
		}
	}
	b.WriteString("End\n")
	return b.String()
}

// BranchAndBound solves CLUSTERMINIMIZATION exactly with a depth-first
// branch-and-bound over landmark→cluster assignments. It handles larger
// instances than the O(3ⁿ) subset DP (Exact): the search
//
//   - orders landmarks by decreasing conflict degree (hard ones first),
//   - seeds the incumbent with the GreedySearch solution re-checked at
//     the true δ (when feasible) so pruning starts tight,
//   - prunes with clusters-used + an independent-set lower bound on the
//     unassigned remainder (mutually-conflicting landmarks need distinct
//     clusters), and
//   - breaks cluster symmetry by allowing at most one new cluster per
//     branch level.
//
// maxNodes bounds the search-tree size; exceeding it returns an error
// (the caller can fall back to the bicriteria GreedySearch).
func BranchAndBound(n int, dist DistFunc, delta float64, maxNodes int) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("cluster: n must be positive, got %d", n)
	}
	if delta < 0 || math.IsNaN(delta) {
		return Result{}, fmt.Errorf("cluster: delta must be >= 0, got %v", delta)
	}
	if maxNodes <= 0 {
		maxNodes = 5_000_000
	}

	// Conflict adjacency on the "too far" graph.
	conflict := make([][]bool, n)
	degree := make([]int, n)
	for i := range conflict {
		conflict[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist(i, j) > delta {
				conflict[i][j] = true
				conflict[j][i] = true
				degree[i]++
				degree[j]++
			}
		}
	}

	// Assignment order: most conflicted first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if degree[order[a]] != degree[order[b]] {
			return degree[order[a]] > degree[order[b]]
		}
		return order[a] < order[b]
	})

	// Incumbent: every landmark its own cluster, or the greedy solution
	// when it happens to satisfy the true δ.
	best := n
	bestAssign := make([]int, n)
	for i := range bestAssign {
		bestAssign[i] = i
	}
	if gs, _, err := GreedySearch(n, dist, delta); err == nil {
		if gs.MaxIntra(dist) <= delta && gs.K < best {
			best = gs.K
			copy(bestAssign, gs.Assign)
		}
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	members := make([][]int, 0, n)
	nodes := 0
	aborted := false

	// isLowerBound: greedy independent set (in the conflict graph) over
	// the unassigned suffix — each member needs its own cluster beyond
	// those compatible with existing ones... conservatively, members that
	// conflict with every open cluster AND each other need new clusters.
	lowerBound := func(pos int) int {
		var chosen []int
		for _, idx := range order[pos:] {
			ok := true
			for _, c := range chosen {
				if !conflict[idx][c] {
					ok = false
					break
				}
			}
			if ok {
				chosen = append(chosen, idx)
			}
		}
		// Members of the independent set that fit no open cluster demand
		// a brand-new one each.
		extra := 0
		for _, idx := range chosen {
			fits := false
			for _, mem := range members {
				compatible := true
				for _, m := range mem {
					if conflict[idx][m] {
						compatible = false
						break
					}
				}
				if compatible {
					fits = true
					break
				}
			}
			if !fits {
				extra++
			}
		}
		return len(members) + extra
	}

	var rec func(pos int)
	rec = func(pos int) {
		if aborted {
			return
		}
		nodes++
		if nodes > maxNodes {
			aborted = true
			return
		}
		if len(members) >= best {
			return
		}
		if pos == n {
			best = len(members)
			copy(bestAssign, assign)
			return
		}
		if lowerBound(pos) >= best {
			return
		}
		idx := order[pos]
		// Existing clusters.
		for ci, mem := range members {
			ok := true
			for _, m := range mem {
				if conflict[idx][m] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			assign[idx] = ci
			members[ci] = append(members[ci], idx)
			rec(pos + 1)
			members[ci] = members[ci][:len(members[ci])-1]
			assign[idx] = -1
		}
		// One new cluster (symmetry-broken: new clusters are
		// interchangeable, so a single branch suffices).
		if len(members)+1 < best {
			assign[idx] = len(members)
			members = append(members, []int{idx})
			rec(pos + 1)
			members = members[:len(members)-1]
			assign[idx] = -1
		}
	}
	rec(0)
	if aborted {
		return Result{}, fmt.Errorf("cluster: branch-and-bound exceeded %d nodes", maxNodes)
	}

	res := Result{K: best, Assign: bestAssign, Radius: math.NaN()}
	res.Centers = make([]int, best)
	for i := range res.Centers {
		res.Centers[i] = -1
	}
	return res, nil
}

func TestNewILPModelValidation(t *testing.T) {
	d := planarDist([][2]float64{{0, 0}})
	if _, err := NewILPModel(0, d, 1); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := NewILPModel(1, d, -1); err == nil {
		t.Fatal("negative delta must error")
	}
}

func TestILPModelCounts(t *testing.T) {
	pts := [][2]float64{{0, 0}, {1, 0}, {10, 0}}
	m, err := NewILPModel(3, planarDist(pts), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// Conflicts: (0,2) and (1,2) — both 9+ apart; (0,1) is within δ.
	if len(m.Conflicts) != 2 {
		t.Fatalf("conflicts = %v", m.Conflicts)
	}
	if m.NumVariables() != 3*3+3+1 {
		t.Fatalf("variables = %d", m.NumVariables())
	}
	want := 1 + 9 + 3 + 2*3
	if m.NumConstraints() != want {
		t.Fatalf("constraints = %d, want %d", m.NumConstraints(), want)
	}
}

func TestILPLPFormat(t *testing.T) {
	pts := [][2]float64{{0, 0}, {10, 0}}
	m, err := NewILPModel(2, planarDist(pts), 1)
	if err != nil {
		t.Fatal(err)
	}
	lp := m.LPFormat()
	for _, frag := range []string{
		"Minimize", "obj: m", "Subject To",
		"+ y0 + y1 - m <= 0",
		"x0_0 - y0 <= 0",
		"+ x0_0 + x0_1 = 1",
		"x0_0 + x1_0 <= 1", // the conflict pair
		"Binary", "End",
	} {
		if !strings.Contains(lp, frag) {
			t.Fatalf("LP output missing %q:\n%s", frag, lp)
		}
	}
}

func TestBranchAndBoundValidation(t *testing.T) {
	d := planarDist([][2]float64{{0, 0}})
	if _, err := BranchAndBound(0, d, 1, 0); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := BranchAndBound(1, d, -1, 0); err == nil {
		t.Fatal("negative delta must error")
	}
}

func TestBranchAndBoundMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(9) // 4..12: within Exact's comfortable range
		pts := randPoints(r, n, 100)
		d := planarDist(pts)
		delta := 15 + r.Float64()*50

		exact, err := Exact(n, d, delta)
		if err != nil {
			t.Fatal(err)
		}
		bnb, err := BranchAndBound(n, d, delta, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bnb.K != exact.K {
			t.Fatalf("trial %d (n=%d δ=%.1f): bnb=%d exact=%d", trial, n, delta, bnb.K, exact.K)
		}
		if err := bnb.Validate(n); err != nil {
			t.Fatal(err)
		}
		if intra := bnb.MaxIntra(d); intra > delta+1e-9 {
			t.Fatalf("bnb solution violates δ: %v > %v", intra, delta)
		}
	}
}

func TestBranchAndBoundBeyondExactRange(t *testing.T) {
	// 30 items — beyond MaxExactItems — solved exactly; verify
	// feasibility and that GreedySearch's bicriteria answer never beats
	// it in cluster count at the true δ.
	r := rand.New(rand.NewSource(5))
	n := 30
	pts := randPoints(r, n, 300)
	d := planarDist(pts)
	delta := 80.0

	res, err := BranchAndBound(n, d, delta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(n); err != nil {
		t.Fatal(err)
	}
	if intra := res.MaxIntra(d); intra > delta+1e-9 {
		t.Fatalf("δ violated: %v", intra)
	}
	gs, _, err := GreedySearch(n, d, delta)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 6 from the other side: GreedySearch uses k_ALG ≤ k_OPT
	// clusters (it stretches δ instead).
	if gs.K > res.K {
		t.Fatalf("GreedySearch used %d clusters > exact optimum %d", gs.K, res.K)
	}
}

func TestBranchAndBoundNodeBudget(t *testing.T) {
	// A pathological budget must abort cleanly rather than hang.
	r := rand.New(rand.NewSource(6))
	n := 24
	pts := randPoints(r, n, 100)
	d := planarDist(pts)
	if _, err := BranchAndBound(n, d, 30, 10); err == nil {
		t.Fatal("a 10-node budget cannot solve a 24-item instance")
	}
}

func TestBranchAndBoundSingletons(t *testing.T) {
	// All points mutually conflicting: n clusters.
	pts := [][2]float64{{0, 0}, {100, 0}, {0, 100}, {100, 100}}
	res, err := BranchAndBound(4, planarDist(pts), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}
	// All points compatible: one cluster.
	res, err = BranchAndBound(4, planarDist(pts), 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Fatalf("K = %d, want 1", res.K)
	}
}
