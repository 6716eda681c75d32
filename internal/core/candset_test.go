package core

import (
	"math"
	"math/rand"
	"testing"
)

// checkCandSet compares the set with its oracle — slot → the source side
// of the slot's first insertion — and the insertion order with order:
// every slot below n is found iff the oracle has it, at the candidate its
// stamp names, with that first source side and no destination side yet.
func checkCandSet(t *testing.T, s *candSet, n int, oracle map[int32]sideCandidate, order []int32) {
	t.Helper()
	if len(s.cands) != len(order) {
		t.Fatalf("set holds %d candidates, want %d", len(s.cands), len(order))
	}
	for i, slot := range order {
		if s.cands[i].slot != slot {
			t.Fatalf("candidate %d is slot %d, want %d (insertion order)", i, s.cands[i].slot, slot)
		}
	}
	for slot := int32(0); int(slot) < n; slot++ {
		c, want := s.find(slot), oracle[slot]
		if _, in := oracle[slot]; !in {
			if c != nil {
				t.Fatalf("slot %d was never added but is found: %+v", slot, c)
			}
			continue
		}
		if c == nil || c.slot != slot || c.src != want || c.dst.Cluster != -1 {
			t.Fatalf("slot %d = %+v, want source side %+v", slot, c, want)
		}
	}
}

// TestCandSetGrowKeepsEveryCandidate runs searches' worth of adds —
// duplicates included, which keep the first source side — against a map
// oracle, over slot tables that grow between one reset and the next (and
// shrink back, which one index's slot table never does).
// The stamps only ever grow at a reset, when the set is empty, so there is
// no rehash for a candidate to survive: what has to hold is that every
// candidate of the round is found, nothing of an earlier round is, and a
// reset to a table the stamps already cover does not allocate.
func TestCandSetGrowKeepsEveryCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := newCandSet()
	grown := 0
	for round, n := range []int{8, 8, 300, 64, 300, 301, 5000, 1, 5000, 20000} {
		before := len(s.stamps)
		s.reset(n)
		switch {
		case len(s.stamps) < n:
			t.Fatalf("round %d: %d stamps for a table of %d slots", round, len(s.stamps), n)
		case n <= before && len(s.stamps) != before:
			t.Fatalf("round %d: reset(%d) replaced a stamp array of %d", round, n, before)
		case len(s.stamps) != before:
			grown++
		}
		oracle, order := map[int32]sideCandidate{}, []int32(nil)
		checkCandSet(t, s, n, oracle, order) // empty after every reset, whatever the last round left
		for i := 0; i < 3*n; i++ {
			slot := int32(rng.Intn(n))
			src := sideCandidate{Cluster: i, Walk: float64(round)}
			s.add(slot, src)
			if _, dup := oracle[slot]; !dup {
				oracle[slot] = src
				order = append(order, slot)
			}
		}
		checkCandSet(t, s, n, oracle, order)
	}
	if grown < 4 {
		t.Fatalf("the stamp array grew %d times, the sequence wants at least 4", grown)
	}
}

// TestCandSetResetAndEpochWrap: a reset forgets every candidate without
// touching the stamps, and the stamps of a wrapped epoch counter cannot
// bring old candidates back.
func TestCandSetResetAndEpochWrap(t *testing.T) {
	const n = 2000
	s := newCandSet()
	s.reset(n)
	fill := func(base int) {
		for i := 0; i < 100; i++ {
			s.add(int32(base+i), sideCandidate{Cluster: i})
		}
	}
	fill(1)
	stamped := s.stamps[1]
	s.reset(n)
	if len(s.cands) != 0 || s.find(1) != nil {
		t.Fatal("reset left candidates behind")
	}
	if s.stamps[1] != stamped {
		t.Fatal("reset rewrote a stamp: it is meant to be O(1)")
	}
	fill(1000)
	if s.find(1) != nil || s.find(1000) == nil {
		t.Fatal("after a reset the set must hold exactly the new candidates")
	}

	// The next reset wraps the counter: epoch 1 comes around again, and
	// stamps written in the first epoch 1 must not read as live.
	first := newCandSet()
	first.reset(n)
	if first.epoch != 1 {
		t.Fatalf("a new set's first epoch is %d, want 1", first.epoch)
	}
	first.add(42, sideCandidate{})
	first.epoch = math.MaxUint32
	first.reset(n)
	if first.epoch == 0 {
		t.Fatal("epoch 0 is the stamp of never-used slots")
	}
	if first.find(42) != nil {
		t.Fatal("a candidate survived the epoch wrap")
	}
	first.add(43, sideCandidate{Cluster: 9})
	if c := first.find(43); c == nil || c.src.Cluster != 9 || len(first.cands) != 1 {
		t.Fatalf("set unusable after the epoch wrap: %+v", c)
	}
}
