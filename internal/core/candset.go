package core

import "xar/internal/discretize"

// candidate is one ride of a search's candidate set, named by its slot in
// the index: the least-walk source cluster whose window produced it and,
// once the destination side has produced it too, the least-walk
// destination cluster (dst.Cluster is -1 until then).
type candidate struct {
	slot     int32
	src, dst discretize.WalkableCluster
}

// candSet is the R1/R2 working set of the two-sided search: candidates
// in insertion order, found by slot through an array of stamps as long as
// the index's slot table. A stamp is live only while its epoch equals the
// set's, so reset is O(1) — no clearing between the searches a pooled set
// serves — and the set allocates only when the slot table has outgrown it.
type candSet struct {
	cands  []candidate
	stamps []candStamp
	epoch  uint32
}

// candStamp says that, in epoch, the slot it is indexed by is candidate
// number at.
type candStamp struct {
	epoch uint32
	at    int32 // index into cands
}

func newCandSet() *candSet { return &candSet{} }

// reset empties the set and readies it for slots below n.
func (s *candSet) reset(n int) {
	s.cands = s.cands[:0]
	if n > len(s.stamps) {
		// Nothing to carry over: the set is empty. Doubling keeps a search
		// that follows every create of a growing fleet from allocating.
		s.stamps = make([]candStamp, max(n, 2*len(s.stamps)))
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 2³² resets ago would read as live
		clear(s.stamps)
		s.epoch = 1
	}
}

// find returns the candidate in slot, or nil. The pointer is valid until
// the next add.
func (s *candSet) find(slot int32) *candidate {
	if st := s.stamps[slot]; st.epoch == s.epoch {
		return &s.cands[st.at]
	}
	return nil
}

// add inserts the ride in slot with source side src unless it is already
// there.
func (s *candSet) add(slot int32, src discretize.WalkableCluster) {
	st := &s.stamps[slot]
	if st.epoch == s.epoch {
		return
	}
	*st = candStamp{epoch: s.epoch, at: int32(len(s.cands))}
	s.cands = append(s.cands, candidate{slot: slot, src: src, dst: discretize.WalkableCluster{Cluster: -1}})
}
