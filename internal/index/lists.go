package index

import (
	"fmt"
	"slices"
)

// listEntry pairs a potential ride with its estimated arrival time in a
// cluster — the ⟨r, t⟩ tuples of §VI. The ride is named by its slot in
// the index's slot table (Index.slots), not by its ID: a slot is four
// bytes, bounded by the live fleet, and what the search's candidate set
// and ride lookup are indexed by. 16 bytes, no pointer.
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

// clusterList holds the potential rides of one cluster in one order — by
// (ETA, slot) — cut into blocks of at most blockCap entries: time-window
// retrieval is a binary search over the block tails and one inside a
// block; insertion and removal are the same search plus a move inside
// one block. There is no by-ride order: whoever removes or re-times a
// ride knows its slot and the ETA it is listed under (Ride.ListETA),
// which makes the entry's position a keyed lookup too.
//
// No block is empty and the concatenation of the blocks is strictly
// ascending (structuralDefect verifies both).
type clusterList struct {
	blocks [][]listEntry
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
		if b := l.blocks[mid]; b[len(b)-1].before(e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// posIn returns the position of the first entry of b that is not before
// e.
func posIn(b []listEntry, e listEntry) int {
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].before(e) {
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
		if last := bi - 1; last >= 0 && len(l.blocks[last]) < blockCap {
			l.blocks[last] = append(l.blocks[last], e)
		} else {
			l.blocks = append(l.blocks, []listEntry{e})
		}
		return
	}
	b := l.blocks[bi]
	i := posIn(b, e)
	if len(b) == blockCap {
		// Full: the upper half moves to a new block of its own.
		upper := slices.Clone(b[blockCap/2:])
		b = b[:blockCap/2]
		l.blocks = slices.Insert(l.blocks, bi+1, upper)
		l.blocks[bi] = b
		if i > len(b) {
			bi, b, i = bi+1, upper, i-len(b)
		}
	}
	l.blocks[bi] = slices.Insert(b, i, e)
}

// find locates the tuple ⟨slot, eta⟩.
func (l *clusterList) find(slot int32, eta float64) (bi, i int, ok bool) {
	e := listEntry{ETA: eta, Slot: slot}
	if bi = l.blockFor(e); bi == len(l.blocks) {
		return 0, 0, false
	}
	b := l.blocks[bi]
	i = posIn(b, e)
	return bi, i, b[i] == e // i < len(b): b's tail is not before e
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
	if b := l.blocks[bi]; len(b) > 1 {
		l.blocks[bi] = slices.Delete(b, i, i+1)
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
// (inclusive): a binary search over the block tails, one inside that
// block, then a run across blocks. The endpoints are range-checked first,
// so an empty or out-of-window list costs two comparisons. T is int32 for
// the search, which works in slots, and RideID for PotentialRides, which
// translates the appended slots in place.
func window[T ~int32 | ~int64](l *clusterList, t1, t2 float64, dst []T) []T {
	bs := l.blocks
	if t2 < t1 || len(bs) == 0 || bs[0][0].ETA > t2 {
		return dst
	}
	if last := bs[len(bs)-1]; last[len(last)-1].ETA < t1 {
		return dst
	}
	lo, hi := 0, len(bs)-1 // the last block's tail is known to reach t1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b := bs[mid]; b[len(b)-1].ETA < t1 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a := bs[lo]
	i, hi := 0, len(a)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if a[mid].ETA < t1 {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	for {
		for ; i < len(a); i++ {
			if a[i].ETA > t2 {
				return dst
			}
			dst = append(dst, T(a[i].Slot))
		}
		if lo++; lo == len(bs) {
			return dst
		}
		a, i = bs[lo], 0
	}
}

// scan is the ablation variant of window: a full scan that ignores the
// order. Benchmarks use it to quantify the value of the sorted list.
func scan[T ~int32 | ~int64](l *clusterList, t1, t2 float64, dst []T) []T {
	for _, b := range l.blocks {
		for _, e := range b {
			if e.ETA >= t1 && e.ETA <= t2 {
				dst = append(dst, T(e.Slot))
			}
		}
	}
	return dst
}

// structuralDefect describes the first violation of the block
// invariants — an empty or oversized block, entries out of (ETA, slot)
// order, a count that disagrees with len() — with the offending slot (-1
// when no one entry is at fault), or returns "" for a well-formed list.
func (l *clusterList) structuralDefect() (int32, string) {
	n := 0
	var prev listEntry
	for bi, b := range l.blocks {
		if len(b) == 0 || len(b) > blockCap {
			return 0, fmt.Sprintf("block %d holds %d entries (want 1..%d)", bi, len(b), blockCap)
		}
		for i, e := range b {
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
