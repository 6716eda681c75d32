package core

import (
	"math"
	"testing"

	"xar/internal/index"
)

// TestCandSetGrowKeepsEveryCandidate fills a set far past its initial
// table with IDs of one residue class (what one shard sees) and checks
// that every candidate is still found, in insertion order, with the
// source side of its first insertion.
func TestCandSetGrowKeepsEveryCandidate(t *testing.T) {
	s := newCandSet()
	initial := len(s.slots)
	const n = 5000
	for i := 0; i < n; i++ {
		id := index.RideID(7 + 16*i)
		s.add(id, sideCandidate{Cluster: i, Walk: float64(i)})
		s.add(id, sideCandidate{Cluster: -5, Walk: -1}) // already there: ignored
	}
	if len(s.cands) != n {
		t.Fatalf("set holds %d candidates, want %d", len(s.cands), n)
	}
	if len(s.slots) <= initial || len(s.slots) < 2*n {
		t.Fatalf("table has %d slots for %d candidates (started at %d)", len(s.slots), n, initial)
	}
	for i := 0; i < n; i++ {
		id := index.RideID(7 + 16*i)
		c := s.find(id)
		if c == nil || c != &s.cands[i] || c.id != id || c.src.Cluster != i || c.dst.Cluster != -1 {
			t.Fatalf("candidate %d (ride %d) = %+v", i, id, c)
		}
		if s.find(id+1) != nil {
			t.Fatalf("ride %d was never added but is found", id+1)
		}
	}
}

// TestCandSetResetAndEpochWrap: a reset forgets every candidate without
// touching the table, and the stamps of a wrapped epoch counter cannot
// bring old candidates back.
func TestCandSetResetAndEpochWrap(t *testing.T) {
	s := newCandSet()
	fill := func(base int) {
		for i := 0; i < 100; i++ {
			s.add(index.RideID(base+i), sideCandidate{Cluster: i})
		}
	}
	fill(1)
	s.reset()
	if len(s.cands) != 0 || s.find(1) != nil {
		t.Fatal("reset left candidates behind")
	}
	fill(1000)
	if s.find(1) != nil || s.find(1000) == nil {
		t.Fatal("after a reset the set must hold exactly the new candidates")
	}

	// The next reset wraps the counter: epoch 1 comes around again, and
	// slots stamped in the first epoch 1 must not read as live.
	first := newCandSet()
	first.add(42, sideCandidate{})
	first.epoch = math.MaxUint32
	first.reset()
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
