package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"xar/internal/memsize"
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
	if len(l.fence) != max(len(l.blocks)-1, 0) {
		t.Fatalf("%d fences for %d blocks", len(l.fence), len(l.blocks))
	}
	n := 0
	var prev listEntry
	for bi, b := range l.blocks {
		if len(b.eta) != len(b.slot) {
			t.Fatalf("block %d holds %d ETAs and %d slots", bi, len(b.eta), len(b.slot))
		}
		if len(b.eta) == 0 {
			t.Fatalf("block %d is empty", bi)
		}
		if len(b.eta) > blockCap {
			t.Fatalf("block %d holds %d entries, cap is %d", bi, len(b.eta), blockCap)
		}
		for i, eta := range b.eta {
			e := listEntry{ETA: eta, Slot: b.slot[i]}
			if n > 0 && !prev.before(e) {
				t.Fatalf("block %d entry %d: %v does not follow %v", bi, i, e, prev)
			}
			if eta, ok := ref[e.Slot]; !ok || eta != e.ETA {
				t.Fatalf("block %d entry %d: %v, model has (%v, %v)", bi, i, e, eta, ok)
			}
			prev = e
			n++
		}
		if bi < len(l.fence) && l.fence[bi] != b.eta[len(b.eta)-1] {
			t.Fatalf("fence %d is %v, block %d ends at %v", bi, l.fence[bi], bi, b.eta[len(b.eta)-1])
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
		var w WriteWork
		ref := refList{}
		nextID := int32(0)

		// Time-ordered arrivals (three rides per ETA) leave full blocks.
		for ; nextID < 2*blockCap+blockCap/2; nextID++ {
			eta := float64(nextID / 3)
			l.add(&w, nextID, eta)
			ref[nextID] = eta
			checkList(t, &l, ref)
		}
		if len(l.blocks) != 3 || l.blocks[0].len() != blockCap || l.blocks[1].len() != blockCap {
			t.Fatalf("seed %d: %d time-ordered appends left %d blocks (first two %d, %d entries), want full blocks",
				seed, nextID, len(l.blocks), l.blocks[0].len(), l.blocks[1].len())
		}
		if want := (WriteWork{Edits: int64(nextID), Probes: w.Probes}); w != want || w.Probes == 0 {
			t.Fatalf("seed %d: time-ordered appends did %+v, want %d edits that shift and split nothing", seed, w, nextID)
		}

		// Random phase over the same ETA range, so ties are everywhere.
		maxETA := int(nextID/3) + 50
		splits, tailAppends, staleKeys := 0, 0, 0
		for op := 0; op < 5000; op++ {
			switch p := rng.Intn(20); {
			case p < 9: // add
				id, eta := nextID, float64(rng.Intn(maxETA))
				nextID++
				last := &l.blocks[len(l.blocks)-1]
				pastTail := last.at(last.len() - 1).before(listEntry{Slot: id, ETA: eta})
				nb := len(l.blocks)
				l.add(&w, id, eta)
				ref[id] = eta
				switch {
				case pastTail:
					tailAppends++
				case len(l.blocks) == nb+1:
					splits++
				}
			case p < 12: // remove
				if id, ok := anyRide(rng, ref, idSpace); ok {
					if !l.remove(&w, id, ref[id]) {
						t.Fatalf("seed %d op %d: remove(%d, %v) reported absent", seed, op, id, ref[id])
					}
					delete(ref, id)
				}
			case p < 15: // re-time
				if id, ok := anyRide(rng, ref, idSpace); ok {
					now := float64(rng.Intn(maxETA))
					l.updateETA(&w, id, ref[id], now)
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
						if l.has(key.Slot, key.ETA) || l.remove(&w, key.Slot, key.ETA) {
							t.Fatalf("seed %d op %d: stale key %v found", seed, op, key)
						}
						l.updateETA(&w, key.Slot, key.ETA, 0) // must not list the ride twice
						staleKeys++
					}
				}
			default: // window
				t1 := float64(rng.Intn(maxETA)) - 0.5*float64(rng.Intn(2))
				t2 := t1 + float64(rng.Intn(maxETA/4))
				want := ref.window(t1, t2)
				if got := l.window(t1, t2, nil); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: window [%v, %v] = %d rides, model has %d", seed, op, t1, t2, len(got), len(want))
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
			e := l.blocks[0].at(rng.Intn(l.blocks[0].len()))
			if !l.remove(&w, e.Slot, e.ETA) {
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
	var w WriteWork
	l.add(&w, 1, 10)
	l.add(&w, 2, 20)
	l.add(&w, 3, 30)
	if got := l.window(10, 30, nil); !slices.Equal(got, []int32{1, 2, 3}) {
		t.Fatalf("inclusive window = %v", got)
	}
	if got := l.window(10.5, 29.5, nil); !slices.Equal(got, []int32{2}) {
		t.Fatalf("inner window = %v", got)
	}
	for _, w := range [][2]float64{{31, 40}, {0, 9}, {21, 29}, {30, 10}} {
		if got := l.window(w[0], w[1], nil); len(got) != 0 {
			t.Fatalf("window %v = %v, want empty", w, got)
		}
	}
	if got := l.window(20, 20, []int32{99}); !slices.Equal(got, []int32{99, 2}) {
		t.Fatalf("window must append to dst, got %v", got)
	}
}

// TestBlockListSplitKeepsBothHalves inserts into every position of a full
// block — the two ends and the middle included — and checks where the
// block was cut and that in both parts slot i still pairs with ETA i. A
// block with another after it is cut in the middle; the list's last
// block, where rides arriving nearly in time order insert, is cut where
// the tuple goes once that is past the middle, and the tuple ends the
// lower part. Either way the upper part is born whole and the lower part
// keeps the full block's columns.
func TestBlockListSplitKeepsBothHalves(t *testing.T) {
	const half = blockCap / 2
	for _, last := range []bool{false, true} {
		for _, at := range []int{0, 1, half - 1, half, half + 1, blockCap - 1} {
			var l clusterList
			var w WriteWork
			ref := refList{}
			for i := 0; i < blockCap; i++ {
				l.add(&w, int32(i), float64(2*i))
				ref[int32(i)] = float64(2 * i)
			}
			if !last {
				// A second block, so position blockCap−1 is still an
				// insert, not an append past the tail.
				l.add(&w, 9000, 1e6)
				ref[9000] = 1e6
			}
			l.add(&w, 5000, float64(2*at-1))
			ref[5000] = float64(2*at - 1)
			checkList(t, &l, ref)
			if want := 3 - b2i(last); len(l.blocks) != want || w.Splits != 1 {
				t.Fatalf("last %v, insert at %d: %d blocks after %d splits, want the full one split in two", last, at, len(l.blocks), w.Splits)
			}
			lower, upper := l.blocks[0], l.blocks[1]
			wantLower := half + b2i(at <= half)
			if last && at > half {
				wantLower = at + 1
			}
			if lower.len() != wantLower || lower.len()+upper.len() != blockCap+1 {
				t.Fatalf("last %v, insert at %d: parts of %d and %d entries, want %d below", last, at, lower.len(), upper.len(), wantLower)
			}
			if cap(lower.eta) != blockCap || cap(upper.eta) != blockCap || cap(upper.slot) != blockCap {
				t.Fatalf("last %v, insert at %d: parts have room for %d and %d ETAs, %d slots above; want blockCap", last, at, cap(lower.eta), cap(upper.eta), cap(upper.slot))
			}
			for _, b := range []block{lower, upper} {
				for i, slot := range b.slot {
					if want := float64(2 * slot); slot != 5000 && b.eta[i] != want {
						t.Fatalf("last %v, insert at %d: slot %d sits beside ETA %v, it was added with %v", last, at, slot, b.eta[i], want)
					}
				}
			}
		}
	}
}

// TestPostingBytesPerEntry: a posting costs 12 bytes — a full block
// measures as its two column headers plus blockCap × (8 + 4) — and a
// fence between two blocks 8.
func TestPostingBytesPerEntry(t *testing.T) {
	var l clusterList
	var w WriteWork
	for i := 0; i < blockCap; i++ {
		l.add(&w, int32(i), float64(i))
	}
	if len(l.blocks) != 1 || l.blocks[0].len() != blockCap {
		t.Fatalf("%d time-ordered adds left %d blocks", blockCap, len(l.blocks))
	}
	headers := uint64(unsafe.Sizeof(block{}))
	if got, want := memsize.Of(l.blocks[0]), headers+blockCap*12; got != want || headers != 48 {
		t.Fatalf("a full block measures %d bytes, want %d (two slice headers, %d, and %d × 12)", got, want, headers, blockCap)
	}
	// A fence stands between each two blocks: five full blocks' four
	// fences fill their array exactly, a slice header and 8 bytes each.
	for i := blockCap; i < 5*blockCap; i++ {
		l.add(&w, int32(i), float64(i))
	}
	if got := memsize.Of(l.fence); len(l.blocks) != 5 || len(l.fence) != 4 || got != 24+4*8 {
		t.Fatalf("%d blocks' %d fences measure %d bytes, want a 24-byte header and 8 a fence", len(l.blocks), len(l.fence), got)
	}
}

// TestWindowEqualsScanOnRandomLists: over random lists of zero to four
// blocks with ties everywhere, window and the model's filter (a scan) agree
// — same slots, same (list) order, appended behind a prefix of dst that
// survives — on random windows and on the ones aimed at each edge of the
// read: both bounds on one entry's ETA, t2 on a block's tail, a window
// that ends in the first or in the last block, one that falls between two
// neighbours, an inverted one, infinite and NaN bounds.
func TestWindowEqualsScanOnRandomLists(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	prefix := []int32{-7, -8}
	cases, hit := 0, map[string]int{}
	check := func(l *clusterList, ref refList, t1, t2 float64, kind string) {
		t.Helper()
		cases++
		want := ref.window(t1, t2)
		got := l.window(t1, t2, slices.Clone(prefix))
		if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
			t.Fatalf("%s window [%v, %v] of a %d-block list: appended %d slots, the model holds %d", kind, t1, t2, len(l.blocks), len(got)-len(prefix), len(want))
		}
		if len(want) > 0 {
			hit[kind]++
		}
	}
	for trial := 0; trial < 60; trial++ {
		// Time-ordered adds fill blocks to the cap; the removals and
		// re-adds that follow split some and thin others. Even ETAs leave
		// room for a window between two neighbours.
		var l clusterList
		var w WriteWork
		ref := refList{}
		n := rng.Intn(4*blockCap - 200)
		if trial < 3 {
			n = trial // the empty list and the one- and two-entry ones
		}
		perETA := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			l.add(&w, int32(i), float64(2*(i/perETA)))
			ref[int32(i)] = float64(2 * (i / perETA))
		}
		maxETA := 2 * (n/perETA + 1)
		for i := rng.Intn(n/4 + 1); i > 0; i-- {
			id, _ := anyRide(rng, ref, n)
			now := float64(2 * rng.Intn(maxETA/2))
			l.updateETA(&w, id, ref[id], now)
			ref[id] = now
		}
		checkList(t, &l, ref)
		for bi := 0; bi+1 < len(l.blocks); bi++ {
			if l.blocks[bi].tailETA() == l.blocks[bi+1].eta[0] {
				hit["tie across a block boundary"]++
			}
		}

		inf := math.Inf(1)
		check(&l, ref, -inf, inf, "all-time")
		check(&l, ref, -inf, float64(rng.Intn(maxETA)), "open-start")
		check(&l, ref, float64(rng.Intn(maxETA)), inf, "open-end")
		check(&l, ref, inf, -inf, "inverted")
		check(&l, ref, float64(maxETA), 0, "inverted")
		check(&l, ref, math.NaN(), inf, "NaN")
		check(&l, ref, 0, math.NaN(), "NaN")
		for bi := range l.blocks {
			b := &l.blocks[bi]
			start := float64(rng.Intn(maxETA))
			check(&l, ref, min(start, b.tailETA()), b.tailETA(), "t2 on a block's tail")
			check(&l, ref, b.tailETA(), b.tailETA(), "t2 on a block's tail")
			e := b.eta[rng.Intn(b.len())]
			check(&l, ref, e, e, "both bounds on an entry's ETA")
			check(&l, ref, e+0.5, e+1.5, "between two neighbours")
			check(&l, ref, min(start, e), e, "t2 on an entry's ETA")
			switch bi {
			case 0:
				check(&l, ref, -inf, e, "ends in the first block")
			case len(l.blocks) - 1:
				check(&l, ref, start, e+1, "ends in the last block")
			}
		}
		for i := 0; i < 25; i++ {
			t1 := float64(rng.Intn(maxETA)) - 0.5*float64(rng.Intn(2))
			check(&l, ref, t1, t1+float64(rng.Intn(maxETA)), "random")
		}
	}
	if cases < 2000 {
		t.Fatalf("%d windows checked, want at least 2000", cases)
	}
	for _, kind := range []string{"tie across a block boundary", "all-time", "open-start", "open-end", "t2 on a block's tail",
		"both bounds on an entry's ETA", "t2 on an entry's ETA", "ends in the first block", "ends in the last block", "random"} {
		if hit[kind] == 0 {
			t.Errorf("no non-empty case of kind %q", kind)
		}
	}
	for _, kind := range []string{"inverted", "NaN", "between two neighbours"} {
		if hit[kind] != 0 {
			t.Errorf("%d windows of kind %q held entries", hit[kind], kind)
		}
	}
}

// TestStructuralDefectCatchesDamage breaks each block invariant in turn,
// fences kept consistent with the damage where they would otherwise
// report it first, and requires the report that names it.
func TestStructuralDefectCatchesDamage(t *testing.T) {
	build := func() *clusterList {
		var l clusterList
		var w WriteWork
		for i := 0; i < 2*blockCap; i++ {
			l.add(&w, int32(i), float64(i/2))
		}
		return &l
	}
	for name, c := range map[string]struct {
		damage func(l *clusterList)
		want   string
	}{
		"empty block": {func(l *clusterList) {
			l.blocks, l.fence = append(l.blocks, block{}), append(l.fence, l.blocks[1].tailETA())
		}, fmt.Sprintf("block 2 holds 0 entries (want 1..%d)", blockCap)},
		"oversized block": {func(l *clusterList) {
			b := &l.blocks[1]
			b.eta, b.slot = append(b.eta, 1e9), append(b.slot, 1<<20)
			l.n++
		}, fmt.Sprintf("block 1 holds %d entries (want 1..%d)", blockCap+1, blockCap)},
		"order in block": {func(l *clusterList) { s := l.blocks[0].slot; s[2], s[3] = s[3], s[2] }, "(ETA, slot) order violated at block 0 entry 3"},
		"order across": {func(l *clusterList) {
			l.blocks[0], l.blocks[1] = l.blocks[1], l.blocks[0]
			l.fence[0] = l.blocks[0].tailETA()
		}, "(ETA, slot) order violated at block 1 entry 0"},
		"duplicate tuple": {func(l *clusterList) {
			b := &l.blocks[0]
			b.eta[1], b.slot[1] = b.eta[0], b.slot[0]
		}, "(ETA, slot) order violated at block 0 entry 1"},
		"stale count":           {func(l *clusterList) { l.n-- }, fmt.Sprintf("blocks hold %d entries, len() says %d", 2*blockCap, 2*blockCap-1)},
		"truncated slot column": {func(l *clusterList) { b := &l.blocks[1]; b.slot = b.slot[:len(b.slot)-1] }, fmt.Sprintf("block 1 holds %d ETAs and %d slots", blockCap, blockCap-1)},
		"truncated ETA column": {func(l *clusterList) {
			b := &l.blocks[0]
			b.eta = b.eta[:len(b.eta)-3]
			l.fence[0] = b.tailETA()
		}, fmt.Sprintf("block 0 holds %d ETAs and %d slots", blockCap-3, blockCap)},
		// The fence: off its block's tail (still ascending, so only the
		// comparison with the tail sees it), missing, or one too many —
		// the last block has none.
		"fence off its tail": {func(l *clusterList) { l.fence[0] -= 0.5 }, fmt.Sprintf("fence 0 reads %v, its block's last ETA is %v", float64(blockCap/2-1)-0.5, float64(blockCap/2-1))},
		"fence missing":      {func(l *clusterList) { l.fence = l.fence[:0] }, "0 fences for 2 blocks"},
		"fence past the last block": {func(l *clusterList) {
			l.fence = append(l.fence, l.blocks[1].tailETA())
		}, "2 fences for 2 blocks"},
	} {
		l := build()
		if _, defect := l.structuralDefect(); defect != "" {
			t.Fatalf("%s: intact list reported %q", name, defect)
		}
		c.damage(l)
		if _, defect := l.structuralDefect(); defect != c.want {
			t.Errorf("%s: reported as %q, want %q", name, defect, c.want)
		}
	}
}
