package core

import (
	"context"
	"sort"
	"sync"

	"xar/internal/geo"
	"xar/internal/index"
)

// UserID identifies a rider or driver for social prioritization.
type UserID int64

// SocialGraph is an undirected friendship graph. The paper motivates
// returning multiple matches per request partly so that "rides offered
// by people in the social network graph of the requester can be given
// higher priority while listing the options" (§VII) — this type and
// Engine.RankSocially implement that.
//
// SocialGraph is safe for concurrent use.
type SocialGraph struct {
	mu  sync.RWMutex
	adj map[UserID]map[UserID]struct{}
}

// NewSocialGraph creates an empty graph.
func NewSocialGraph() *SocialGraph {
	return &SocialGraph{adj: make(map[UserID]map[UserID]struct{})}
}

// AddFriendship records a mutual connection. Self-friendships are
// ignored.
func (g *SocialGraph) AddFriendship(a, b UserID) {
	if a == b {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.adj[a] == nil {
		g.adj[a] = make(map[UserID]struct{})
	}
	if g.adj[b] == nil {
		g.adj[b] = make(map[UserID]struct{})
	}
	g.adj[a][b] = struct{}{}
	g.adj[b][a] = struct{}{}
}

// Friends returns the degree of a user.
func (g *SocialGraph) Friends(a UserID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj[a])
}

// Distance returns the hop distance between two users, exploring at most
// maxDepth hops; it returns maxDepth+1 when they are farther (or
// unknown). Distance(a, a) is 0.
func (g *SocialGraph) Distance(a, b UserID, maxDepth int) int {
	if a == b {
		return 0
	}
	if maxDepth < 1 {
		return 1
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	// Bidirectional-ish plain BFS; social queries are shallow (≤ 3).
	visited := map[UserID]int{a: 0}
	frontier := []UserID{a}
	for depth := 1; depth <= maxDepth; depth++ {
		var next []UserID
		for _, u := range frontier {
			for v := range g.adj[u] {
				if _, seen := visited[v]; seen {
					continue
				}
				if v == b {
					return depth
				}
				visited[v] = depth
				next = append(next, v)
			}
		}
		frontier = next
	}
	return maxDepth + 1
}

// SocialRankDepth bounds how far the friendship BFS explores when
// ranking matches: direct friends, then friends-of-friends.
const SocialRankDepth = 2

// RankSocially reorders matches so rides offered by socially-closer
// drivers come first; ties keep the least-walk order Search produced.
// Matches on rides with no recorded owner rank last among equals.
func (e *Engine) RankSocially(matches []Match, requester UserID, g *SocialGraph) []Match {
	if g == nil || len(matches) < 2 {
		return matches
	}
	type ranked struct {
		m     Match
		owner int64
		dist  int
		pos   int
	}
	rs := make([]ranked, len(matches))
	// One read-lock hold fetches every owner; the graph distances are
	// computed after it is released.
	e.ix.RLock()
	for i, m := range matches {
		rs[i] = ranked{m: m, dist: SocialRankDepth + 1, pos: i}
		if r := e.ix.Ix.Ride(m.Ride); r != nil {
			rs[i].owner = r.Owner
		}
	}
	e.ix.RUnlock()
	for i := range rs {
		if rs[i].owner != 0 {
			rs[i].dist = g.Distance(requester, UserID(rs[i].owner), SocialRankDepth)
		}
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].dist != rs[j].dist {
			return rs[i].dist < rs[j].dist
		}
		return rs[i].pos < rs[j].pos
	})
	out := make([]Match, len(matches))
	for i, r := range rs {
		out[i] = r.m
	}
	return out
}

// SearchBatch runs many searches concurrently — the load pattern of an
// MMTP issuing C(k+1,2) segment searches per trip plan (§IX-B). Results
// align with the requests; individual failures are reported in errs.
func (e *Engine) SearchBatch(reqs []Request, k int) (results [][]Match, errs []error) {
	return e.SearchBatchCtx(context.Background(), reqs, k)
}

// searchBatchWorkers bounds the goroutines one batch runs its searches on.
const searchBatchWorkers = 8

// SearchBatchCtx is SearchBatch with trace propagation: every segment
// search of the batch joins the context's trace (each as its own
// "search" span), so one trace shows the whole MMTP fan-out.
func (e *Engine) SearchBatchCtx(ctx context.Context, reqs []Request, k int) (results [][]Match, errs []error) {
	results = make([][]Match, len(reqs))
	errs = make([]error, len(reqs))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < min(len(reqs), searchBatchWorkers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = e.SearchKCtx(ctx, reqs[i], k)
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, errs
}

// TrackPosition implements GPS-report tracking: the vehicle reports its
// location, the engine snaps it to the nearest remaining route node and
// advances the ride there. Reports that snap behind the current progress
// are ignored (GPS jitter must not move a ride backwards). It reports
// arrival at the destination.
func (e *Engine) TrackPosition(id index.RideID, report geo.Point) (bool, error) {
	return e.TrackPositionCtx(context.Background(), id, report)
}

// TrackPositionCtx is TrackPosition with trace propagation.
func (e *Engine) TrackPositionCtx(ctx context.Context, id index.RideID, report geo.Point) (arrived bool, err error) {
	g := e.disc.City().Graph
	return e.advance(ctx, id, func(r *index.Ride) int {
		// Scan the remaining route for the closest node to the report.
		// Routes are a few hundred nodes; a linear scan beats maintaining
		// another spatial index per ride.
		bestIdx, bestD := r.Progress, -1.0
		for i := r.Progress; i < len(r.Route); i++ {
			d := geo.Haversine(report, g.Point(r.Route[i]))
			if bestD < 0 || d < bestD {
				bestD = d
				bestIdx = i
			}
		}
		return bestIdx
	})
}
