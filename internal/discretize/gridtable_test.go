package discretize

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"xar/internal/geo"
	"xar/internal/grid"
	"xar/internal/roadnet"
)

// within is the landmark scan the per-cell oracle ran: visit for every
// landmark at haversine distance ≤ radius of p, each one the flat bound
// does not turn away paying for a plain geo.Haversine.
func within(d *Discretization, p geo.Point, radius float64, visit func(i int, dist float64)) {
	if radius < 0 {
		return
	}
	b := d.lmIndex
	flat := geo.NewFlatBound(p, b.Box)
	r0, r1, c0, c1 := b.Square(p, radius)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			for _, i := range b.Bucket(r, c) {
				q := d.Landmarks[i].Point
				if flat.Beyond(q, radius) {
					continue
				}
				if dist := geo.Haversine(p, q); dist <= radius {
					visit(int(i), dist)
				}
			}
		}
	}
}

// computeGridInfo is the per-cell computation the grid table replaced, as
// it ran on a search's first touch of a cell: its own allocations, a
// haversine for every landmark in the circle, a reflection sort. It stays
// as the oracle the table must equal.
func computeGridInfo(d *Discretization, id grid.ID) *GridInfo {
	centroid := d.Grid.Centroid(id)
	gi := &GridInfo{Landmark: -1, DriveDist: math.NaN()}
	node, snap := d.city.Index.Nearest(centroid)
	if node != roadnet.InvalidNode {
		if lm, dist := d.LandmarkOfNode(node); lm >= 0 && dist+snap <= d.cfg.MaxDriveToLandmark {
			gi.Landmark = lm
			gi.DriveDist = dist + snap
		}
	}
	acc := make([]WalkableCluster, 0, 16)
	within(d, centroid, d.cfg.MaxWalk/walkDetourFactor, func(lmID int, straight float64) {
		walk := straight * walkDetourFactor
		if walk > d.cfg.MaxWalk {
			return
		}
		c := d.landmarkCluster[lmID]
		for i := range acc {
			if wc := &acc[i]; wc.Cluster == c {
				if walk < wc.Walk {
					wc.Walk = walk
				}
				return
			}
		}
		acc = append(acc, WalkableCluster{Cluster: c, Walk: walk})
	})
	gi.Walkable = make([]WalkableCluster, len(acc))
	copy(gi.Walkable, acc)
	sort.Slice(gi.Walkable, func(i, j int) bool {
		if gi.Walkable[i].Walk != gi.Walkable[j].Walk {
			return gi.Walkable[i].Walk < gi.Walkable[j].Walk
		}
		return gi.Walkable[i].Cluster < gi.Walkable[j].Cluster
	})
	return gi
}

// sameGridInfo reports whether a and b hold the same landmark, drive
// distance and walkable list, bit for bit (a NaN distance equals itself).
func sameGridInfo(a, b *GridInfo) bool {
	if a.Landmark != b.Landmark || math.Float64bits(a.DriveDist) != math.Float64bits(b.DriveDist) ||
		len(a.Walkable) != len(b.Walkable) {
		return false
	}
	for i, wa := range a.Walkable {
		wb := b.Walkable[i]
		if wa.Cluster != wb.Cluster || math.Float64bits(wa.Walk) != math.Float64bits(wb.Walk) {
			return false
		}
	}
	return true
}

// allCells lists every cell of d's grid in row-major order.
func allCells(d *Discretization) []grid.ID {
	var cells []grid.ID
	for r := range d.Grid.Rows() {
		for c := range d.Grid.Cols() {
			cells = append(cells, d.Grid.Cell(r, c))
		}
	}
	return cells
}

// TestGridTableEqualsPerCellOracle builds the grid table on one worker
// and on four, over both benchmark cities, and checks every cell against
// the per-cell oracle: the same bits for any number of workers. Each list
// is capped at its length (a deep size counts each entry once) and an
// empty one is nil.
func TestGridTableEqualsPerCellOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark-sized regions")
	}
	for _, city := range []struct{ cols, rows, cells int }{{40, 22, 5214}, {80, 44, 15290}} {
		c, err := roadnet.GenerateCity(roadnet.DefaultCityConfig(city.cols, city.rows, 42))
		if err != nil {
			t.Fatal(err)
		}
		d, err := Build(c, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cells := allCells(d)
		if len(cells) != city.cells || len(d.cells) != city.cells {
			t.Fatalf("%dx%d: %d cells, table of %d, want %d", city.cols, city.rows, len(cells), len(d.cells), city.cells)
		}
		want := make([]*GridInfo, len(cells))
		for i, id := range cells {
			want[i] = computeGridInfo(d, id)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			e := *d
			e.buildGridTable()
			runtime.GOMAXPROCS(prev)
			for i, id := range cells {
				got := e.Info(id)
				if got != &e.cells[i] || !sameGridInfo(got, want[i]) {
					t.Fatalf("%dx%d, GOMAXPROCS %d, cell %v:\n table  %+v\n oracle %+v", city.cols, city.rows, procs, id, got, want[i])
				}
				if n := len(got.Walkable); (n == 0 && got.Walkable != nil) || cap(got.Walkable) != n {
					t.Fatalf("%dx%d, cell %v: walkable len %d cap %d nil %v", city.cols, city.rows, id, n, cap(got.Walkable), got.Walkable == nil)
				}
			}
		}
	}
}
