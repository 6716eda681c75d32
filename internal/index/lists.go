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

// blockCap bounds a block of a clusterList. A write moves at most one
// block's entries, so it stays constant as a list grows; a window read
// runs across whole blocks, so small blocks would break the hardware
// prefetch stream of a few-hundred-entry window.
const blockCap = 512

// block is a run of tuples as two parallel columns: tuple i is (eta[i],
// slot[i]), 12 bytes and no pointer. The binary searches read the ETA
// column; a window copies a stretch of the slot column and reads no ETA
// between its two ends.
type block struct {
	eta  []float64
	slot []int32
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
func (b *block) pos(e listEntry) int {
	lo, hi := 0, len(b.eta)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.before(mid, e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// clusterList holds the potential rides of one cluster in one order — by
// (ETA, slot) — cut into blocks of at most blockCap entries: time-window
// retrieval is a binary search over the block tails and one inside a
// block; insertion and removal are the same search plus a move inside
// one block. There is no by-ride order: whoever removes or re-times a
// ride knows its slot and the ETA it is listed under (Ride.ListETA),
// which makes the entry's position a keyed lookup too.
//
// No block is empty, a block's two columns are equally long and the
// concatenation of the blocks is strictly ascending (structuralDefect
// verifies all three).
type clusterList struct {
	blocks []block
	n      int
}

func (l *clusterList) len() int { return l.n }

// blockFor returns the first block whose tail is not before e — the
// block that holds e if the list does, and the one e belongs in
// otherwise — or len(l.blocks) when e sorts after every entry.
func (l *clusterList) blockFor(e listEntry) int {
	lo, hi := 0, len(l.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b := &l.blocks[mid]; b.before(b.len()-1, e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// add inserts the tuple. The caller guarantees the ride is not already
// listed.
func (l *clusterList) add(slot int32, eta float64) {
	e := listEntry{ETA: eta, Slot: slot}
	l.n++
	bi := l.blockFor(e)
	if bi == len(l.blocks) {
		// Past the last entry — the common case, rides arriving in time
		// order: fill the last block, then open a new one. Blocks grow by
		// append; a pre-sized one would cost blockCap entries for every
		// cluster a single ride touches.
		if last := bi - 1; last >= 0 && l.blocks[last].len() < blockCap {
			b := &l.blocks[last]
			b.eta, b.slot = append(b.eta, eta), append(b.slot, slot)
		} else {
			l.blocks = append(l.blocks, block{eta: []float64{eta}, slot: []int32{slot}})
		}
		return
	}
	b := &l.blocks[bi]
	i := b.pos(e)
	if b.len() == blockCap {
		// Full: the upper half moves to a new block of its own.
		const half = blockCap / 2
		upper := block{eta: slices.Clone(b.eta[half:]), slot: slices.Clone(b.slot[half:])}
		b.eta, b.slot = b.eta[:half], b.slot[:half]
		l.blocks = slices.Insert(l.blocks, bi+1, upper)
		if i > half {
			bi, i = bi+1, i-half
		}
		b = &l.blocks[bi] // Insert may have moved the blocks
	}
	b.eta, b.slot = slices.Insert(b.eta, i, eta), slices.Insert(b.slot, i, slot)
}

// find locates the tuple ⟨slot, eta⟩.
func (l *clusterList) find(slot int32, eta float64) (bi, i int, ok bool) {
	e := listEntry{ETA: eta, Slot: slot}
	if bi = l.blockFor(e); bi == len(l.blocks) {
		return 0, 0, false
	}
	b := &l.blocks[bi]
	i = b.pos(e)
	return bi, i, b.at(i) == e // i < b.len(): b's tail is not before e
}

// has reports whether the ride is listed under exactly eta.
func (l *clusterList) has(slot int32, eta float64) bool {
	_, _, ok := l.find(slot, eta)
	return ok
}

// remove deletes the ride's tuple, given the ETA it is listed under; it
// reports whether the tuple was present. A stale key removes nothing.
func (l *clusterList) remove(slot int32, eta float64) bool {
	bi, i, ok := l.find(slot, eta)
	if !ok {
		return false
	}
	l.n--
	if b := &l.blocks[bi]; b.len() > 1 {
		b.eta, b.slot = slices.Delete(b.eta, i, i+1), slices.Delete(b.slot, i, i+1)
	} else {
		l.blocks = slices.Delete(l.blocks, bi, bi+1)
	}
	return true
}

// updateETA moves the ride's tuple from arrival estimate was to now.
func (l *clusterList) updateETA(slot int32, was, now float64) {
	if l.remove(slot, was) {
		l.add(slot, now)
	}
}

// window appends to dst the slots listed with an ETA in [t1, t2]
// (inclusive): a binary search over the block tails and one inside that
// block find where the window starts, then every block's stretch of the
// slot column is copied in one append — whole, while the block's tail is
// inside the window; up to the first ETA past t2, found by a second binary
// search, in the block where the window ends. No ETA between the window's
// two ends is read. The endpoints are range-checked first, so an empty or
// out-of-window list costs two comparisons; a NaN bound holds nothing.
func (l *clusterList) window(t1, t2 float64, dst []int32) []int32 {
	bs := l.blocks
	if !(t1 <= t2) || len(bs) == 0 || bs[0].eta[0] > t2 {
		return dst
	}
	if bs[len(bs)-1].tailETA() < t1 {
		return dst
	}
	lo, hi := 0, len(bs)-1 // the last block's tail is known to reach t1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bs[mid].tailETA() < t1 {
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
		if b.tailETA() <= t2 {
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
// entries out of (ETA, slot) order, a count that disagrees with len() —
// with the offending slot (-1 when no one entry is at fault), or returns
// "" for a well-formed list.
func (l *clusterList) structuralDefect() (int32, string) {
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
	}
	if n != l.n {
		return -1, fmt.Sprintf("blocks hold %d entries, len() says %d", n, l.n)
	}
	return -1, ""
}
