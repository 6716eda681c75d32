package core

import (
	"xar/internal/discretize"
	"xar/internal/index"
)

// candidate is one ride of a shard's candidate set: the least-walk
// source cluster whose window produced it and, once the destination side
// has produced it too, the least-walk destination cluster (dst.Cluster
// is -1 until then).
type candidate struct {
	id       index.RideID
	src, dst discretize.WalkableCluster
}

// candSet is the R1/R2 working set of the two-sided search: candidates
// in insertion order, found by ride ID through an open-addressed table.
// A slot is live only while its stamp equals the set's epoch, so reset
// is O(1) — no clearing between the shards a search visits — and the
// set allocates only when it outgrows every earlier search.
type candSet struct {
	cands []candidate
	slots []candSlot // len is a power of two, at least 2×len(cands)
	shift uint       // 64 − log2(len(slots))
	epoch uint32
}

type candSlot struct {
	id    index.RideID
	stamp uint32
	at    int32 // index into cands
}

func newCandSet() *candSet {
	s := &candSet{epoch: 1}
	s.resize(8)
	return s
}

// resize installs an empty table of 1<<bits slots.
func (s *candSet) resize(bits uint) {
	s.slots = make([]candSlot, 1<<bits)
	s.shift = 64 - bits
}

// reset empties the set.
func (s *candSet) reset() {
	s.cands = s.cands[:0]
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 2³² resets ago would read as live
		clear(s.slots)
		s.epoch = 1
	}
}

// slot returns the slot holding id, or the empty slot where id belongs.
// Ride IDs of one shard are congruent modulo the shard count, so the
// home slot comes from the high bits of a multiplicative hash.
func (s *candSet) slot(id index.RideID) *candSlot {
	mask := uint64(len(s.slots) - 1)
	for h := uint64(id) * 0x9E3779B97F4A7C15 >> s.shift; ; h = (h + 1) & mask {
		if sl := &s.slots[h]; sl.stamp != s.epoch || sl.id == id {
			return sl
		}
	}
}

// find returns the candidate for ride id, or nil. The pointer is valid
// until the next add.
func (s *candSet) find(id index.RideID) *candidate {
	if sl := s.slot(id); sl.stamp == s.epoch {
		return &s.cands[sl.at]
	}
	return nil
}

// add inserts ride id with source side src unless it is already there.
func (s *candSet) add(id index.RideID, src discretize.WalkableCluster) {
	sl := s.slot(id)
	if sl.stamp == s.epoch {
		return
	}
	if 2*(len(s.cands)+1) > len(s.slots) {
		s.resize(64 - s.shift + 1)
		for i := range s.cands {
			*s.slot(s.cands[i].id) = candSlot{id: s.cands[i].id, stamp: s.epoch, at: int32(i)}
		}
		sl = s.slot(id)
	}
	*sl = candSlot{id: id, stamp: s.epoch, at: int32(len(s.cands))}
	s.cands = append(s.cands, candidate{id: id, src: src, dst: discretize.WalkableCluster{Cluster: -1}})
}
