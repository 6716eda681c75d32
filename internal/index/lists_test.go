package index

import (
	"math/rand"
	"slices"
	"testing"
)

// refList is the model the block list is tested against: slot → the ETA
// it is listed under.
type refList map[int32]float64

// window returns the slots with ETA in [t1, t2] in list order.
func (r refList) window(t1, t2 float64) []int32 {
	var in []listEntry
	for id, eta := range r {
		if eta >= t1 && eta <= t2 {
			in = append(in, listEntry{Slot: id, ETA: eta})
		}
	}
	slices.SortFunc(in, func(a, b listEntry) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
	out := make([]int32, len(in))
	for i, e := range in {
		out[i] = e.Slot
	}
	return out
}

// checkList verifies the block invariants and that the list holds exactly
// the model's tuples. It does not go through structuralDefect, which must
// merely agree.
func checkList(t *testing.T, l *clusterList, ref refList) {
	t.Helper()
	n := 0
	var prev listEntry
	for bi, b := range l.blocks {
		if len(b) == 0 {
			t.Fatalf("block %d is empty", bi)
		}
		if len(b) > blockCap {
			t.Fatalf("block %d holds %d entries, cap is %d", bi, len(b), blockCap)
		}
		for i, e := range b {
			if n > 0 && !prev.before(e) {
				t.Fatalf("block %d entry %d: %v does not follow %v", bi, i, e, prev)
			}
			if eta, ok := ref[e.Slot]; !ok || eta != e.ETA {
				t.Fatalf("block %d entry %d: %v, model has (%v, %v)", bi, i, e, eta, ok)
			}
			prev = e
			n++
		}
	}
	if n != len(ref) || l.len() != n {
		t.Fatalf("blocks hold %d entries, len() = %d, model has %d", n, l.len(), len(ref))
	}
	if _, defect := l.structuralDefect(); defect != "" {
		t.Fatalf("structuralDefect on a well-formed list: %s", defect)
	}
}

// anyRide returns some slot of the model (the smallest at or after a
// random probe, so the choice depends on rng alone, not on map order).
func anyRide(rng *rand.Rand, ref refList, idSpace int) (int32, bool) {
	if len(ref) == 0 {
		return 0, false
	}
	for id := int32(rng.Intn(idSpace)); ; id = (id + 1) % int32(idSpace) {
		if _, ok := ref[id]; ok {
			return id, true
		}
	}
}

// TestBlockListModel drives add / remove / updateETA / window against the
// map model through every structural event of the block list: appends
// past the tail that fill blocks exactly, splits of full blocks, stale
// keys, equal-ETA ties and removals that empty a block — checking the
// invariants after every step.
func TestBlockListModel(t *testing.T) {
	const idSpace = 6000
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var l clusterList
		ref := refList{}
		nextID := int32(0)

		// Time-ordered arrivals (three rides per ETA) leave full blocks.
		for ; nextID < 2*blockCap+100; nextID++ {
			eta := float64(nextID / 3)
			l.add(nextID, eta)
			ref[nextID] = eta
			checkList(t, &l, ref)
		}
		if len(l.blocks) != 3 || len(l.blocks[0]) != blockCap || len(l.blocks[1]) != blockCap {
			t.Fatalf("seed %d: %d time-ordered appends left %d blocks (first two %d, %d entries), want full blocks",
				seed, nextID, len(l.blocks), len(l.blocks[0]), len(l.blocks[1]))
		}

		// Random phase over the same ETA range, so ties are everywhere.
		maxETA := int(nextID/3) + 50
		splits, tailAppends, staleKeys := 0, 0, 0
		for op := 0; op < 5000; op++ {
			switch p := rng.Intn(20); {
			case p < 9: // add
				id, eta := nextID, float64(rng.Intn(maxETA))
				nextID++
				last := l.blocks[len(l.blocks)-1]
				pastTail := last[len(last)-1].before(listEntry{Slot: id, ETA: eta})
				nb := len(l.blocks)
				l.add(id, eta)
				ref[id] = eta
				switch {
				case pastTail:
					tailAppends++
				case len(l.blocks) == nb+1:
					splits++
				}
			case p < 12: // remove
				if id, ok := anyRide(rng, ref, idSpace); ok {
					if !l.remove(id, ref[id]) {
						t.Fatalf("seed %d op %d: remove(%d, %v) reported absent", seed, op, id, ref[id])
					}
					delete(ref, id)
				}
			case p < 15: // re-time
				if id, ok := anyRide(rng, ref, idSpace); ok {
					now := float64(rng.Intn(maxETA))
					l.updateETA(id, ref[id], now)
					ref[id] = now
				}
			case p < 17: // stale or foreign key: reports absent, removes nothing
				if id, ok := anyRide(rng, ref, idSpace); ok {
					other, _ := anyRide(rng, ref, idSpace)
					for _, key := range []listEntry{
						{Slot: id, ETA: ref[id] + 0.5},           // an ETA nobody has
						{Slot: id, ETA: ref[id] + 1},             // a neighbour's ETA
						{Slot: id, ETA: ref[other]},              // some other ride's ETA
						{Slot: idSpace + 7, ETA: ref[id]},        // a ride nobody listed, at a listed ETA
						{Slot: nextID, ETA: float64(maxETA + 1)}, // past the tail
					} {
						if eta, listed := ref[key.Slot]; listed && eta == key.ETA {
							continue // other shares id's ETA: not stale
						}
						if l.has(key.Slot, key.ETA) || l.remove(key.Slot, key.ETA) {
							t.Fatalf("seed %d op %d: stale key %v found", seed, op, key)
						}
						l.updateETA(key.Slot, key.ETA, 0) // must not list the ride twice
						staleKeys++
					}
				}
			default: // window
				t1 := float64(rng.Intn(maxETA)) - 0.5*float64(rng.Intn(2))
				t2 := t1 + float64(rng.Intn(maxETA/4))
				want := ref.window(t1, t2)
				if got := window[int32](&l, t1, t2, nil); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: window [%v, %v] = %d rides, model has %d", seed, op, t1, t2, len(got), len(want))
				}
				got := scan[int32](&l, t1, t2, nil)
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: linear scan of [%v, %v] disagrees with the model", seed, op, t1, t2)
				}
			}
			checkList(t, &l, ref)
		}
		if splits < 3 || tailAppends == 0 || staleKeys == 0 {
			t.Fatalf("seed %d: %d splits, %d appends past the tail, %d stale keys — the sequence must exercise each", seed, splits, tailAppends, staleKeys)
		}
		for id, eta := range ref {
			if !l.has(id, eta) {
				t.Fatalf("seed %d: has(%d, %v) = false", seed, id, eta)
			}
		}

		// Drain block by block from the front: every block is emptied and
		// dropped in turn.
		dropped := 0
		for len(ref) > 0 {
			nb := len(l.blocks)
			e := l.blocks[0][rng.Intn(len(l.blocks[0]))]
			if !l.remove(e.Slot, e.ETA) {
				t.Fatalf("seed %d: drain: remove(%v) reported absent", seed, e)
			}
			delete(ref, e.Slot)
			if len(l.blocks) < nb {
				dropped++
			}
			checkList(t, &l, ref)
		}
		if dropped < 4 || len(l.blocks) != 0 {
			t.Fatalf("seed %d: drain dropped %d blocks and left %d", seed, dropped, len(l.blocks))
		}
	}
}

func TestBlockListWindowInclusive(t *testing.T) {
	var l clusterList
	l.add(1, 10)
	l.add(2, 20)
	l.add(3, 30)
	if got := window[int32](&l, 10, 30, nil); !slices.Equal(got, []int32{1, 2, 3}) {
		t.Fatalf("inclusive window = %v", got)
	}
	if got := window[int32](&l, 10.5, 29.5, nil); !slices.Equal(got, []int32{2}) {
		t.Fatalf("inner window = %v", got)
	}
	for _, w := range [][2]float64{{31, 40}, {0, 9}, {21, 29}, {30, 10}} {
		if got := window[int32](&l, w[0], w[1], nil); len(got) != 0 {
			t.Fatalf("window %v = %v, want empty", w, got)
		}
	}
	if got := window(&l, 20, 20, []RideID{99}); !slices.Equal(got, []RideID{99, 2}) {
		t.Fatalf("window must append to dst, got %v", got)
	}
}

// TestBlockListSplitKeepsBothHalves inserts into every position of a full
// block — the two ends and the split point included.
func TestBlockListSplitKeepsBothHalves(t *testing.T) {
	for _, at := range []int{0, 1, blockCap/2 - 1, blockCap / 2, blockCap/2 + 1, blockCap - 1} {
		var l clusterList
		ref := refList{}
		for i := 0; i < blockCap; i++ {
			l.add(int32(i), float64(2*i))
			ref[int32(i)] = float64(2 * i)
		}
		// A second block, so position blockCap−1 is still an insert, not an
		// append past the tail.
		l.add(9000, 1e6)
		ref[9000] = 1e6
		l.add(5000, float64(2*at-1))
		ref[5000] = float64(2*at - 1)
		checkList(t, &l, ref)
		if len(l.blocks) != 3 {
			t.Fatalf("insert at %d: %d blocks, want the full one split in two", at, len(l.blocks))
		}
	}
}

// TestStructuralDefectCatchesDamage breaks each block invariant in turn.
func TestStructuralDefectCatchesDamage(t *testing.T) {
	build := func() *clusterList {
		var l clusterList
		for i := 0; i < 2*blockCap; i++ {
			l.add(int32(i), float64(i/2))
		}
		return &l
	}
	for name, damage := range map[string]func(l *clusterList){
		"empty block":     func(l *clusterList) { l.blocks = append(l.blocks, nil) },
		"oversized block": func(l *clusterList) { l.blocks[1] = append(l.blocks[1], listEntry{Slot: 1 << 20, ETA: 1e9}); l.n++ },
		"order in block":  func(l *clusterList) { b := l.blocks[0]; b[3], b[4] = b[4], b[3] },
		"order across":    func(l *clusterList) { l.blocks[0], l.blocks[1] = l.blocks[1], l.blocks[0] },
		"duplicate tuple": func(l *clusterList) { l.blocks[0][1] = l.blocks[0][0] },
		"stale count":     func(l *clusterList) { l.n-- },
	} {
		l := build()
		if _, defect := l.structuralDefect(); defect != "" {
			t.Fatalf("%s: intact list reported %q", name, defect)
		}
		damage(l)
		if _, defect := l.structuralDefect(); defect == "" {
			t.Errorf("%s: not detected", name)
		}
	}
}
