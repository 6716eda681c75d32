package index

import (
	"fmt"
	"slices"
)

// listEntry pairs a potential ride with its estimated arrival time in a
// cluster — the ⟨r, t⟩ tuples of §VI. The ride is named by its slot in
// the index's slot table (Index.slots), not by its ID: a slot is four
// bytes, bounded by the live fleet, and what the search's candidate set
// and ride lookup are indexed by. It is the key adds, removals and the
// audit compare by; a list stores its tuples as two columns (block), never
// as a slice of these.
type listEntry struct {
	ETA  float64
	Slot int32
}

// before is the list order: ascending ETA, equal ETAs by slot.
func (e listEntry) before(o listEntry) bool {
	if e.ETA != o.ETA {
		return e.ETA < o.ETA
	}
	return e.Slot < o.Slot
}

// WriteWork counts what the index's posting-list edits did, in units no
// machine changes: the index adds to it under its one writer, so the
// fields are plain integers, and a read takes the read lock (View).
type WriteWork struct {
	Edits   int64 // tuples added or removed (a re-timing is one of each)
	Shifted int64 // tuples an insert or a delete moved inside a block
	Splits  int64 // full blocks split in two
	Probes  int64 // keys the fence and in-block searches of an edit compared
}

// blockCap bounds a block of a clusterList. An edit shifts the tuples
// behind it in one block, so a short block keeps the shift — and the
// in-block search before it — on a few cache lines however long the list
// grows; a window read copies one stretch of slots per block, so it pays
// per block it spans, not per tuple. At 96 a booking on search_dense's
// lists shifts a fifth of what 512-tuple blocks made it shift, and a full
// block, 12 × 96 = 1 152 bytes, is one of the allocator's size classes
// (EXPERIMENTS "Posting-list edits on a few cache lines").
const blockCap = 96

// block is a run of tuples as two parallel columns: tuple i is (eta[i],
// slot[i]), 12 bytes and no pointer. The searches read the ETA column; a
// window copies a stretch of the slot column and reads no ETA between
// its two ends.
type block struct {
	eta  []float64
	slot []int32
}

// newBlock returns an empty block with room for n tuples (n a power of
// two up to 64, or blockCap), its two columns the two arrays of one
// struct: one allocation a block, where a slice a column took two, and
// the two slices over it measure exactly its size (an eight-byte multiple
// from two tuples on, so no padding).
func newBlock(n int) block {
	switch {
	case n <= 1:
		c := new(struct {
			eta  [1]float64
			slot [1]int32
		})
		return block{c.eta[:0], c.slot[:0]}
	case n <= 2:
		c := new(struct {
			eta  [2]float64
			slot [2]int32
		})
		return block{c.eta[:0], c.slot[:0]}
	case n <= 4:
		c := new(struct {
			eta  [4]float64
			slot [4]int32
		})
		return block{c.eta[:0], c.slot[:0]}
	case n <= 8:
		c := new(struct {
			eta  [8]float64
			slot [8]int32
		})
		return block{c.eta[:0], c.slot[:0]}
	case n <= 16:
		c := new(struct {
			eta  [16]float64
			slot [16]int32
		})
		return block{c.eta[:0], c.slot[:0]}
	case n <= 32:
		c := new(struct {
			eta  [32]float64
			slot [32]int32
		})
		return block{c.eta[:0], c.slot[:0]}
	case n <= 64:
		c := new(struct {
			eta  [64]float64
			slot [64]int32
		})
		return block{c.eta[:0], c.slot[:0]}
	}
	c := new(struct {
		eta  [blockCap]float64
		slot [blockCap]int32
	})
	return block{c.eta[:0], c.slot[:0]}
}

// grow makes room for one more tuple in a full block: a block twice the
// size, up to blockCap, with b's tuples copied in.
func (b *block) grow() {
	if n := len(b.eta); n == cap(b.eta) { // the slot column's is the same
		nb := newBlock(2 * n)
		nb.eta, nb.slot = append(nb.eta, b.eta...), append(nb.slot, b.slot...)
		*b = nb
	}
}

func (b *block) len() int { return len(b.eta) }

func (b *block) at(i int) listEntry { return listEntry{ETA: b.eta[i], Slot: b.slot[i]} }

// tailETA is the ETA of b's last tuple.
func (b *block) tailETA() float64 { return b.eta[len(b.eta)-1] }

// before reports whether tuple i of b sorts before e. It reads the slot
// column only on an ETA tie.
func (b *block) before(i int, e listEntry) bool {
	if eta := b.eta[i]; eta != e.ETA {
		return eta < e.ETA
	}
	return b.slot[i] < e.Slot
}

// pos returns the position of the first tuple of b that is not before e.
func (b *block) pos(w *WriteWork, e listEntry) int {
	lo, hi, probes := 0, len(b.eta), int64(0)
	for lo < hi {
		probes++
		mid := int(uint(lo+hi) >> 1)
		if b.before(mid, e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.Probes += probes
	return lo
}

// clusterList holds the potential rides of one cluster in one order — by
// (ETA, slot) — cut into blocks of at most blockCap entries. Between two
// neighbouring blocks stands a fence, the lower one's last ETA, and the
// fences are one contiguous array: the search for a block reads the
// fences, a few lines, and opens one block, the one it lands in. A list
// of one block has no fence, so a short list costs what it did before
// there were any. Time-window retrieval is that search and one inside
// the block; insertion and removal are the same searches plus a shift
// inside one block. There is no by-ride order: whoever removes or
// re-times a ride knows its slot and the ETA it is listed under
// (Ride.ListETA), which makes the entry's position a keyed lookup too.
//
// No block is empty, a block's two columns are equally long, the
// concatenation of the blocks is strictly ascending, and there is one
// fence fewer than blocks, fence[i] blocks[i]'s last ETA
// (structuralDefect verifies all four).
type clusterList struct {
	fence  []float64
	blocks []block
	n      int
}

func (l *clusterList) len() int { return l.n }

// blockFor returns the first block whose tail is not before e — the
// block that holds e if the list does, and the one e belongs in
// otherwise — or len(l.blocks) when e sorts after every entry. It reads
// the fences, a block's tail slot only on an ETA tie with its fence, and
// the last block's tail only when e is past every fence.
func (l *clusterList) blockFor(w *WriteWork, e listEntry) int {
	fence := l.fence
	lo, hi, probes := 0, len(fence), int64(0)
	for lo < hi {
		probes++
		mid := int(uint(lo+hi) >> 1)
		if f := fence[mid]; f < e.ETA || f == e.ETA && l.blocks[mid].before(l.blocks[mid].len()-1, e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(fence) && lo < len(l.blocks) {
		probes++
		if b := &l.blocks[lo]; b.before(b.len()-1, e) {
			lo++
		}
	}
	w.Probes += probes
	return lo
}

// add inserts the tuple. The caller guarantees the ride is not already
// listed.
func (l *clusterList) add(w *WriteWork, slot int32, eta float64) {
	e := listEntry{ETA: eta, Slot: slot}
	l.n++
	w.Edits++
	bi := l.blockFor(w, e)
	last := len(l.blocks) - 1
	if bi > last {
		// Past the last entry — the common case, rides arriving in time
		// order: fill the last block, then open a new one. A list's first
		// block starts at one tuple and doubles, so a cluster a single
		// ride touches costs one tuple, not blockCap; a list that has
		// filled a block is a long one, and its next block is born whole.
		if last >= 0 && l.blocks[last].len() < blockCap {
			b := &l.blocks[last]
			b.grow()
			b.eta, b.slot = append(b.eta, eta), append(b.slot, slot)
		} else {
			b := newBlock(1)
			if last >= 0 {
				b = newBlock(blockCap)
				l.fence = append(l.fence, l.blocks[last].tailETA())
			}
			b.eta, b.slot = append(b.eta, eta), append(b.slot, slot)
			l.blocks = append(l.blocks, b)
		}
		return
	}
	b := &l.blocks[bi]
	i := b.pos(w, e)
	if b.len() == blockCap {
		// Full: the tuples from cut on move to a new block, born whole,
		// and the ones before it stay in the full block's columns. The
		// cut is the middle, or where e goes when that is past the middle
		// of the list's last block: rides arriving nearly in time order
		// insert there, and the block they leave behind then stays nearly
		// full instead of half empty for good.
		cut := blockCap / 2
		if bi == last && i > cut {
			cut = i
		}
		w.Splits++
		upper := newBlock(blockCap)
		upper.eta, upper.slot = append(upper.eta, b.eta[cut:]...), append(upper.slot, b.slot[cut:]...)
		b.eta, b.slot = b.eta[:cut], b.slot[:cut]
		l.blocks = slices.Insert(l.blocks, bi+1, upper)
		l.fence = slices.Insert(l.fence, bi, b.tailETA())
		if i > cut {
			bi, i = bi+1, i-cut
		}
		b = &l.blocks[bi] // Insert may have moved the blocks
	}
	w.Shifted += int64(b.len() - i)
	b.grow()
	b.eta, b.slot = slices.Insert(b.eta, i, eta), slices.Insert(b.slot, i, slot)
	if i == b.len()-1 { // only where a split left e past the lower block's tail
		l.fence[bi] = eta
	}
}

// find locates the tuple ⟨slot, eta⟩.
func (l *clusterList) find(w *WriteWork, slot int32, eta float64) (bi, i int, ok bool) {
	e := listEntry{ETA: eta, Slot: slot}
	if bi = l.blockFor(w, e); bi == len(l.blocks) {
		return 0, 0, false
	}
	b := &l.blocks[bi]
	i = b.pos(w, e)
	return bi, i, b.at(i) == e // i < b.len(): b's tail is not before e
}

// has reports whether the ride is listed under exactly eta.
func (l *clusterList) has(slot int32, eta float64) bool {
	var w WriteWork // a read: its probes are not an edit's
	_, _, ok := l.find(&w, slot, eta)
	return ok
}

// remove deletes the ride's tuple, given the ETA it is listed under; it
// reports whether the tuple was present. A stale key removes nothing.
func (l *clusterList) remove(w *WriteWork, slot int32, eta float64) bool {
	bi, i, ok := l.find(w, slot, eta)
	if !ok {
		return false
	}
	l.n--
	w.Edits++
	if b := &l.blocks[bi]; b.len() > 1 {
		w.Shifted += int64(b.len() - i - 1)
		b.eta, b.slot = slices.Delete(b.eta, i, i+1), slices.Delete(b.slot, i, i+1)
		if i == b.len() && bi < len(l.fence) {
			l.fence[bi] = b.tailETA()
		}
	} else {
		// The block goes, and with it its fence — or, the last block's
		// having none, the one before it, which now closes no gap.
		l.blocks = slices.Delete(l.blocks, bi, bi+1)
		if f := min(bi, len(l.fence)-1); f >= 0 {
			l.fence = slices.Delete(l.fence, f, f+1)
		}
	}
	return true
}

// updateETA moves the ride's tuple from arrival estimate was to now.
func (l *clusterList) updateETA(w *WriteWork, slot int32, was, now float64) {
	if l.remove(w, slot, was) {
		l.add(w, slot, now)
	}
}

// window appends to dst the slots listed with an ETA in [t1, t2]
// (inclusive): a binary search over the fences and one inside that
// block find where the window starts, then every block's stretch of the
// slot column is copied in one append — whole, while the block's fence
// (the last block's own tail) is inside the window; up to the first ETA
// past t2, found by a second binary search, in the block where the window
// ends. No ETA between the window's
// two ends is read. A list of one block is range-checked against its two
// ends first; a longer one reads no block the window does not touch. A
// NaN bound holds nothing.
func (l *clusterList) window(t1, t2 float64, dst []int32) []int32 {
	fence, bs := l.fence, l.blocks
	if !(t1 <= t2) || len(bs) == 0 {
		return dst
	}
	if b := &bs[0]; len(fence) == 0 && (b.tailETA() < t1 || b.eta[0] > t2) {
		return dst // one block, and the window misses it
	}
	lo, hi := 0, len(fence) // past every fence t1 can only be in the last block
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fence[mid] < t1 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	eta := bs[lo].eta
	i, hi := 0, len(eta)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if eta[mid] < t1 {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < len(bs); lo, i = lo+1, 0 {
		b := &bs[lo]
		if lo < len(fence) && fence[lo] <= t2 || lo == len(fence) && b.tailETA() <= t2 {
			dst = append(dst, b.slot[i:]...)
			continue
		}
		eta = b.eta
		j, hi := i, len(eta)-1 // the tail is known to be past t2
		for j < hi {
			mid := int(uint(j+hi) >> 1)
			if eta[mid] <= t2 {
				j = mid + 1
			} else {
				hi = mid
			}
		}
		return append(dst, b.slot[i:j]...)
	}
	return dst
}

// structuralDefect describes the first violation of the block
// invariants — columns of different lengths, an empty or oversized block,
// entries out of (ETA, slot) order, a fence that disagrees with its
// block's last ETA or a fence array of another length than the blocks', a
// count that disagrees with len() —
// with the offending slot (-1 when no one entry is at fault), or returns
// "" for a well-formed list.
func (l *clusterList) structuralDefect() (int32, string) {
	if len(l.fence) != max(len(l.blocks)-1, 0) {
		return -1, fmt.Sprintf("%d fences for %d blocks", len(l.fence), len(l.blocks))
	}
	n := 0
	var prev listEntry
	for bi := range l.blocks {
		b := &l.blocks[bi]
		if len(b.eta) != len(b.slot) {
			return -1, fmt.Sprintf("block %d holds %d ETAs and %d slots", bi, len(b.eta), len(b.slot))
		}
		if b.len() == 0 || b.len() > blockCap {
			return -1, fmt.Sprintf("block %d holds %d entries (want 1..%d)", bi, b.len(), blockCap)
		}
		for i := range b.eta {
			e := b.at(i)
			if n > 0 && !prev.before(e) {
				return e.Slot, fmt.Sprintf("(ETA, slot) order violated at block %d entry %d", bi, i)
			}
			prev = e
			n++
		}
		if tail := b.tailETA(); bi < len(l.fence) && l.fence[bi] != tail {
			return b.slot[b.len()-1], fmt.Sprintf("fence %d reads %v, its block's last ETA is %v", bi, l.fence[bi], tail)
		}
	}
	if n != l.n {
		return -1, fmt.Sprintf("blocks hold %d entries, len() says %d", n, l.n)
	}
	return -1, ""
}
