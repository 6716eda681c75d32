package core

import (
	"sort"
	"sync"
	"testing"

	"xar/internal/index"
)

func TestSocialGraphDistance(t *testing.T) {
	g := NewSocialGraph()
	g.AddFriendship(1, 2)
	g.AddFriendship(2, 3)
	g.AddFriendship(3, 4)
	g.AddFriendship(1, 1) // self: ignored

	cases := []struct {
		a, b  UserID
		depth int
		want  int
	}{
		{1, 1, 3, 0},
		{1, 2, 3, 1},
		{1, 3, 3, 2},
		{1, 4, 3, 3},
		{1, 4, 2, 3},  // beyond depth 2 → depth+1
		{1, 99, 3, 4}, // unknown user → depth+1
		{1, 2, 0, 1},  // degenerate depth
	}
	for _, tc := range cases {
		if got := g.Distance(tc.a, tc.b, tc.depth); got != tc.want {
			t.Errorf("Distance(%d,%d,depth=%d) = %d, want %d", tc.a, tc.b, tc.depth, got, tc.want)
		}
	}
	if g.Friends(2) != 2 {
		t.Fatalf("Friends(2) = %d", g.Friends(2))
	}
	if g.Friends(1) != 1 {
		t.Fatalf("Friends(1) = %d (self-friendship must be ignored)", g.Friends(1))
	}
}

func TestSocialGraphConcurrent(t *testing.T) {
	g := NewSocialGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.AddFriendship(UserID(w), UserID(i))
				g.Distance(UserID(w), UserID(i), 2)
			}
		}(w)
	}
	wg.Wait()
}

func TestRankSocially(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)

	// Three drivers: 30 is a friend, 20 a friend-of-friend, 10 a stranger.
	ids := map[UserID]index.RideID{}
	for _, owner := range []UserID{10, 20, 30} {
		id, err := e.CreateRide(RideOffer{
			Source: src, Dest: dst, Departure: 1000, DetourLimit: 1500, Owner: owner,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[owner] = id
	}
	social := NewSocialGraph()
	const requester UserID = 1
	social.AddFriendship(requester, 30)
	social.AddFriendship(requester, 5)
	social.AddFriendship(5, 20)

	r := e.Ride(ids[10])
	req := requestAlong(e, r, 0.2, 0.8, 3600, 900)
	ms, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) < 3 {
		t.Skipf("only %d matches; layout-dependent", len(ms))
	}
	ranked := e.RankSocially(ms, requester, social)
	if len(ranked) != len(ms) {
		t.Fatal("ranking changed the match count")
	}
	pos := map[index.RideID]int{}
	for i, m := range ranked {
		pos[m.Ride] = i
	}
	if pos[ids[30]] > pos[ids[20]] || pos[ids[20]] > pos[ids[10]] {
		t.Fatalf("social order violated: friend at %d, FoF at %d, stranger at %d",
			pos[ids[30]], pos[ids[20]], pos[ids[10]])
	}
	// The same match set survives (permutation).
	orig := make([]index.RideID, len(ms))
	perm := make([]index.RideID, len(ms))
	for i := range ms {
		orig[i] = ms[i].Ride
		perm[i] = ranked[i].Ride
	}
	sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
	sort.Slice(perm, func(i, j int) bool { return perm[i] < perm[j] })
	for i := range orig {
		if orig[i] != perm[i] {
			t.Fatal("ranking dropped or invented matches")
		}
	}
	// Nil graph and short slices are no-ops.
	if got := e.RankSocially(ms, requester, nil); len(got) != len(ms) {
		t.Fatal("nil graph must be a no-op")
	}
	if got := e.RankSocially(ms[:1], requester, social); len(got) != 1 {
		t.Fatal("single match must pass through")
	}
}

func TestSearchBatch(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 1500})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)

	reqs := make([]Request, 24)
	for i := range reqs {
		frac := 0.1 + float64(i%8)*0.05
		reqs[i] = requestAlong(e, r, frac, frac+0.5, 3600, 900)
	}
	batch, errs := e.SearchBatch(reqs, 0)
	if len(batch) != len(reqs) || len(errs) != len(reqs) {
		t.Fatal("result shape mismatch")
	}
	// Results must equal sequential searches.
	for i, req := range reqs {
		seq, serr := e.Search(req)
		if (serr == nil) != (errs[i] == nil) {
			t.Fatalf("request %d: error mismatch %v vs %v", i, errs[i], serr)
		}
		if len(seq) != len(batch[i]) {
			t.Fatalf("request %d: %d matches vs %d sequential", i, len(batch[i]), len(seq))
		}
	}
	// Empty input.
	empty, _ := e.SearchBatch(nil, 0)
	if len(empty) != 0 {
		t.Fatal("empty batch must be empty")
	}
}

func TestTrackPosition(t *testing.T) {
	e := newTestEngine(t)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 0, DetourLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Ride(id)
	g := e.disc.City().Graph

	// Report a position half-way down the route.
	mid := g.Point(r.Route[len(r.Route)/2])
	arrived, err := e.TrackPosition(id, mid)
	if err != nil {
		t.Fatal(err)
	}
	if arrived {
		t.Fatal("mid-route report must not arrive")
	}
	// e.Ride returns a snapshot; re-fetch to observe each advance.
	if p := e.Ride(id).Progress; p < len(r.Route)/2-1 {
		t.Fatalf("progress %d after mid-route report", p)
	}
	// A jittery report near the start must not move the ride backwards.
	before := e.Ride(id).Progress
	if _, err := e.TrackPosition(id, g.Point(r.Route[0])); err != nil {
		t.Fatal(err)
	}
	if e.Ride(id).Progress < before {
		t.Fatal("GPS jitter moved the ride backwards")
	}
	// Destination report arrives.
	arrived, err = e.TrackPosition(id, g.Point(r.Route[len(r.Route)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if !arrived {
		t.Fatal("destination report must arrive")
	}
	if _, err := e.TrackPosition(999, mid); err != ErrUnknownRide {
		t.Fatalf("err = %v, want ErrUnknownRide", err)
	}
}
