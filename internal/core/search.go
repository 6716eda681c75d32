package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"time"

	"xar/internal/discretize"
	"xar/internal/geo"
	"xar/internal/index"
	"xar/internal/journal"
	"xar/internal/quality"
	"xar/internal/telemetry"
)

// maxCandidateEvents caps the search_candidate journal events one
// sampled search may emit — enough to reconstruct "who saw this ride"
// without letting a dense search flood the per-ride rings.
const maxCandidateEvents = 8

// Search implements the optimized two-step ride search of §VII. It never
// computes a shortest path:
//
//	Step 1 — source side: map the request source to its grid, prune the
//	grid's sorted walkable-cluster list by the requester's walk limit,
//	and for each feasible cluster pull the potential rides whose ETA
//	falls in the departure window (binary search on the time order).
//
//	Step 2 — destination side: the same from the destination, with the
//	window extended by destWindowSlack; then intersect the two candidate
//	sets (membership tests against the source side's candidate set).
//
// Finally each surviving ride is checked for combined walking distance
// (≤ the request's limit), combined cluster-approximated detour (≤ the
// ride's remaining budget) and pickup-before-drop-off ordering — not for
// a free seat: the index lists a ride only while it has one. Matches are
// returned sorted by total walking distance, which the paper minimizes.
//
// Concurrency: the walkable-side lookup reads only the immutable
// discretization; everything after it — both sides' windows, the
// intersection and the final checks — runs under one hold of the index's
// read lock, and the sort after it is released.
func (e *Engine) Search(req Request) ([]Match, error) {
	return e.SearchCtx(context.Background(), req)
}

// SearchCtx is Search with trace propagation: when the context's trace
// is recording (or Config.Tracer head-samples this call as a new root),
// the search records its span with the match count and a side_lookup
// child.
// A trace-recorded search is also timed into the op histogram
// regardless of the 1-in-N SearchSampleRate decision, so every trace
// has a matching observation in the op histogram; the finer per-stage and
// per-candidate clocks stay gated on the metrics sample alone (a search
// that is both sampled and traced gets stage timings as span
// attributes too), so tracing adds no clock reads beyond its own spans.
func (e *Engine) SearchCtx(ctx context.Context, req Request) (out []Match, err error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// Searches are sampled (Config.SearchSampleRate): a timed search
	// records the op histogram plus the per-stage breakdown below. The
	// sampling sequence rides on the metrics counter the search already
	// increments, so an unsampled search pays only a mask test.
	n := e.m.searches.Add(1)
	sampled := e.tel != nil && uint32(n)&e.tel.sampleMask == 0
	_, span := e.tel.startOp(ctx, opSearch)
	timed := sampled || span != nil
	var start time.Time
	if span != nil {
		start = span.StartTime() // the span already read the clock
	} else if timed {
		start = time.Now()
	}
	opts := searchOpts{qc: e.quality}
	var rej []rejectedCandidate
	if e.jr != nil && sampled && e.quality != nil {
		opts.rej = &rej
	}
	out, err = e.search(span, req, timed, sampled, opts)
	e.m.searchMatches.Add(uint64(len(out)))
	// A no-match search is the shadow matcher's raw material: re-run it
	// off the request path with relaxed constraints to attribute the
	// binding one. offer() itself samples, so the hot path pays one nil
	// check plus (shadow on) one atomic increment.
	if err == nil && len(out) == 0 {
		e.shadow.offerNoMatch(req)
	}
	// Journal candidate surfacing for sampled searches only: searches
	// are the sub-microsecond hot path and return many matches, so an
	// unconditional emit would dominate their cost. The events are
	// advisory — a candidate timeline entry means "a sampled search saw
	// this ride"; absence proves nothing. Emitted before EndAt: sealing
	// recycles the trace record the cross-link reads.
	if e.jr != nil && sampled {
		for i := range out {
			if i == maxCandidateEvents {
				break
			}
			e.recordEvent(journal.SearchCandidate, out[i].Ride, span, out[i].DetourEstimate, "")
		}
		// The rejection side of the same story, capped alike: which
		// rides a sampled search eliminated and at which funnel stage.
		for i := range rej {
			if i == maxCandidateEvents {
				break
			}
			e.recordEvent(journal.MatchRejected, rej[i].id, span, 0, quality.StageName(rej[i].stage))
		}
	}
	if timed {
		now := time.Now() // one read closes both the span and the op clock
		if span != nil {
			span.SetInt("matches", int64(len(out)))
			span.SetError(err)
		}
		if e.tel != nil {
			// Observe before End: sealing recycles the trace record,
			// so the span is not read after.
			e.tel.observeOp(opSearch, now.Sub(start), span, err)
		}
		span.EndAt(now)
	}
	return out, err
}

// SearchK returns at most k matches (the best k by walking distance).
// k <= 0 means no limit. It mirrors the paper's Figure 5a experiment,
// where the candidate retrieval cost of XAR is insensitive to k.
func (e *Engine) SearchK(req Request, k int) ([]Match, error) {
	return e.SearchKCtx(context.Background(), req, k)
}

// SearchKCtx is SearchK with trace propagation.
func (e *Engine) SearchKCtx(ctx context.Context, req Request, k int) ([]Match, error) {
	ms, err := e.SearchCtx(ctx, req)
	if err != nil {
		return nil, err
	}
	if k > 0 && len(ms) > k {
		ms = ms[:k]
	}
	return ms, nil
}

// sideCandidate is one walkable cluster of a request endpoint. Side
// lists are sub-slices of the discretization's per-grid lists: ascending
// by walk, read-only.
type sideCandidate = discretize.WalkableCluster

// relaxFlags marks constraints the shadow counterfactual matcher lifts
// when re-running a no-match request. The production search always runs
// with relax == 0.
type relaxFlags uint8

const (
	relaxDetour relaxFlags = 1 << iota // ignore the ride's detour budget
	relaxOrder                         // ignore pickup-before-drop-off ordering
)

// searchOpts threads the quality layer through the search: which
// collector (if any) receives the funnel classification, whether
// per-candidate rejection records should be collected for the journal,
// and which constraints a shadow re-run relaxes. The zero value is the
// uninstrumented production search.
type searchOpts struct {
	qc    *quality.Collector
	relax relaxFlags
	// rej, when non-nil, receives the per-candidate rejection records of
	// this search (sampled searches with a journal only).
	rej *[]rejectedCandidate
}

// rejectedCandidate is one candidate ride a search eliminated, with the
// funnel stage that eliminated it — the raw material of the journal's
// match_rejected events.
type rejectedCandidate struct {
	id    index.RideID
	stage int
}

// scanResult is what the locked part of a search reports beside the
// matches it leaves in the scratch.
type scanResult struct {
	// candEnd is the instant the candidate stage ended and the final
	// checks began, detour the time bestSupportPair took (both zero
	// unless the search is metrics-sampled).
	candEnd time.Time
	detour  time.Duration
	// funnel counts the candidate eliminations per quality stage (all
	// zero unless the engine has a quality collector). Local ints here,
	// one batched atomic add after the lock is released — the funnel
	// never adds per-candidate atomics to the hot loop. examined is the
	// candidate-set size (|R1|), counted independently of the stages
	// so the auditor's funnel_accounting invariant cross-checks the
	// classification rather than restating it.
	funnel   [quality.NumStages]uint64
	examined uint64
}

// searchScratch holds the working set of one search: the candidate set,
// the posting-list pull buffer (slots), the matches and the buffer they
// are sorted through. Scratches are reused across searches through
// Engine.scratchPool, so a search's allocations do not grow with the
// candidates it examines or the matches it finds
// (TestSearchAllocsDoNotScaleWithMatches).
type searchScratch struct {
	set     *candSet
	slots   []int32
	matches []Match
	order   []*Match // sort buffer, into matches
}

func newSearchScratch() *searchScratch {
	return &searchScratch{set: newCandSet()}
}

// search runs the two-step lookup: the side lookup, then the scan of the
// index under its read lock, then the sort. span is the operation's span
// (nil when the call is not trace-recorded); fine reports the metrics
// 1-in-N sampling decision, which alone gates the per-stage and
// per-candidate clocks — exactly the pre-trace semantics. A
// trace-recorded but metrics-unsampled search records its span tree and
// the op histogram, nothing finer, keeping the traced hot path lean.
func (e *Engine) search(span *telemetry.Span, req Request, timed, fine bool, opts searchOpts) ([]Match, error) {
	// tel is the per-stage histogram sink — non-nil only for
	// metrics-sampled searches.
	var tel *engineTelemetry
	if fine {
		tel = e.tel
	}

	// Walkable-side resolution reads only the immutable discretization.
	sideSpan := span.Child(stageSideLookup)
	var mark time.Time
	if sideSpan != nil {
		mark = sideSpan.StartTime() // the span already read the clock
	} else if timed {
		mark = time.Now()
	}
	srcSide, err := e.walkableSide(req.Source, req.WalkLimit)
	var dstSide []sideCandidate
	if err == nil {
		dstSide, err = e.walkableSide(req.Dest, req.WalkLimit)
	}
	if err != nil {
		if sideSpan != nil {
			sideSpan.SetError(err)
			sideSpan.End()
		}
		return nil, err
	}
	// The side-lookup end instant doubles as the candidate stage's start.
	if timed {
		now := time.Now()
		if sideSpan != nil {
			sideSpan.SetInt("src_clusters", int64(len(srcSide)))
			sideSpan.SetInt("dst_clusters", int64(len(dstSide)))
			sideSpan.EndAt(now)
		}
		if tel != nil {
			tel.stages[stageSideLookup].ObserveDuration(now.Sub(mark))
		}
		mark = now
	}

	scratch := e.scratchPool.Get().(*searchScratch)
	defer e.scratchPool.Put(scratch)
	e.ix.RLock()
	res := scanIndex(e.ix.Ix, req, srcSide, dstSide, fine, scratch, opts)
	e.ix.RUnlock()
	if opts.qc != nil {
		opts.qc.AddFunnel(&res.funnel, res.examined)
		if span != nil && res.examined > 0 {
			span.SetInt("candidates", int64(res.examined))
			for st, n := range res.funnel {
				if n > 0 && st != quality.Matched {
					span.SetInt("rejected_"+quality.StageName(st), int64(n))
				}
			}
		}
	}
	// A match is 64 bytes: order pointers to them, then copy each once
	// into the slice the caller owns.
	order := scratch.order[:0]
	for i := range scratch.matches {
		order = append(order, &scratch.matches[i])
	}
	scratch.order = order
	slices.SortFunc(order, compareMatches)
	var out []Match
	if len(order) > 0 {
		out = make([]Match, len(order))
		for i, m := range order {
			out[i] = *m
		}
	}
	if tel != nil {
		// The sort is part of the final stage.
		cand, final := res.candEnd.Sub(mark), time.Since(res.candEnd)
		tel.stages[stageCandidate].ObserveDuration(cand)
		tel.stages[stageFinalCheck].ObserveDuration(final)
		if res.detour > 0 {
			tel.stages[stageDetourCheck].ObserveDuration(res.detour)
		}
		if span != nil {
			span.SetFloat("candidate_scan_s", cand.Seconds())
			span.SetFloat("final_check_s", final.Seconds())
		}
	}
	return out, nil
}

// compareMatches orders matches by total walking distance, equal walks
// by ride ID — a total order, since a search matches a ride at most once.
func compareMatches(a, b *Match) int {
	if c := cmp.Compare(a.TotalWalk(), b.TotalWalk()); c != 0 {
		return c
	}
	return cmp.Compare(a.Ride, b.Ride)
}

// scanIndex runs steps 1+2 and the final checks against the posting
// lists; the caller holds the index's read lock. The matches go to
// s.matches, unsorted.
func scanIndex(ix *index.Index, req Request, srcSide, dstSide []sideCandidate, fine bool, s *searchScratch, opts searchOpts) (res scanResult) {
	s.matches = s.matches[:0]

	// Step 1: source-side candidates. The side lists ascend by walk, so
	// the first cluster to produce a ride is the least-walk one that does.
	set := s.set
	set.reset(ix.NumSlots())
	for _, sc := range srcSide {
		s.slots = ix.PotentialSlots(sc.Cluster, req.EarliestDeparture, req.LatestDeparture, s.slots[:0])
		for _, slot := range s.slots {
			set.add(slot, sc)
		}
	}
	if len(set.cands) == 0 {
		if fine {
			res.candEnd = time.Now()
		}
		return res
	}

	// Step 2: destination-side candidates and intersection R1 ∩ R2.
	// The destination window extends past the departure window because
	// the drop-off happens after the pickup.
	destT2 := req.LatestDeparture + destWindowSlack
	inBoth := 0
	for _, dc := range dstSide {
		s.slots = ix.PotentialSlots(dc.Cluster, req.EarliestDeparture, destT2, s.slots[:0])
		for _, slot := range s.slots {
			if c := set.find(slot); c != nil && c.dst.Cluster < 0 {
				c.dst = dc
				inBoth++
			}
		}
	}
	if fine {
		res.candEnd = time.Now()
	}

	// Funnel accounting (quality collector only): every ride in the set
	// is one examined candidate and lands in exactly one stage. Candidates
	// that fell out of the R1∩R2 intersection missed the destination
	// window; the final loop classifies the survivors.
	track := opts.qc != nil
	if track {
		res.examined = uint64(len(set.cands))
		res.funnel[quality.WindowMiss] += uint64(len(set.cands) - inBoth)
	}
	reject := func(id index.RideID, stage int) {
		res.funnel[stage]++
		if opts.rej != nil {
			*opts.rej = append(*opts.rej, rejectedCandidate{id: id, stage: stage})
		}
	}

	// Final checks on the intersection, in insertion order — so which
	// candidates a capped journal sample shows is the same run to run.
	for i := range set.cands {
		src, dst := set.cands[i].src, set.cands[i].dst
		if dst.Cluster < 0 {
			continue
		}
		r := ix.RideAt(set.cands[i].slot)
		if r == nil {
			// A listed slot is an occupied one for as long as the index
			// lock is held, and it has been since the windows were read:
			// only a damaged index (which the auditor reports) gets here.
			// The ride is in no window a consistent index would serve.
			if track {
				res.funnel[quality.WindowMiss]++
			}
			continue
		}
		id := r.ID
		// Combined walking distance within the requester's limit. The
		// per-side lists were pruned by the full limit, so the sum needs
		// its own check — and no other cluster pair can pass it: src and
		// dst are each side's least-walk cluster that lists the ride
		// in-window, and the two sides' conditions are independent.
		if src.Walk+dst.Walk > req.WalkLimit {
			if track {
				reject(id, quality.WalkLimit)
			}
			continue
		}
		var ps, pd *index.Support
		if fine && opts.relax == 0 {
			t0 := time.Now()
			ps, pd = bestSupportPair(r, src.Cluster, dst.Cluster, 0)
			res.detour += time.Since(t0)
		} else {
			ps, pd = bestSupportPair(r, src.Cluster, dst.Cluster, opts.relax)
		}
		if ps == nil {
			if track {
				reject(id, classifyDetourReject(r, src.Cluster, dst.Cluster))
			}
			continue
		}
		if track {
			res.funnel[quality.Matched]++
		}
		s.matches = append(s.matches, Match{
			Ride:           id,
			PickupCluster:  src.Cluster,
			DropoffCluster: dst.Cluster,
			WalkSource:     src.Walk,
			WalkDest:       dst.Walk,
			DetourEstimate: ps.Detour + pd.Detour,
			PickupETA:      r.SupportETA(*ps),
			DropoffETA:     r.SupportETA(*pd),
		})
	}
	return res
}

// walkableSide resolves a request endpoint to its walkable-cluster list
// pruned by the requester's walk limit (a linear scan over the sorted
// list, per §IV). An endpoint with no walkable cluster returns
// ErrNotServable.
func (e *Engine) walkableSide(p geo.Point, limit float64) ([]sideCandidate, error) {
	gi := e.disc.Info(e.disc.GridAt(p))
	if gi == nil {
		return nil, ErrNotServable
	}
	side := gi.WalkableWithin(limit)
	if len(side) == 0 {
		return nil, ErrNotServable
	}
	return side, nil
}

// bestSupportPair validates that the ride can serve pickup cluster cs
// then drop-off cluster cd within its remaining detour budget, using only
// the precomputed supports: it returns the support pair (ps, pd) with
// ps.Order ≤ pd.Order and an ETA no earlier than ps's minimizing combined
// detour, or nil, nil when none fits the budget; equal totals resolve to
// the first pair in Ride.Supports order, pickup side first. A drop-off
// support at a later-or-equal run arrives earlier than the pickup's only
// if its Dist is smaller (Ride.SupportETA), so only then are the two
// ETAs computed. relax is zero except in shadow re-runs: relaxDetour
// lifts the budget, relaxOrder the pickup-before-drop-off requirement.
// The caller holds (at least) the index's read lock, and the pair points
// into r's support table — valid only under that lock.
func bestSupportPair(r *index.Ride, cs, cd int, relax relaxFlags) (ps, pd *index.Support) {
	sups, dups := r.Supports(cs), r.Supports(cd)
	limit := r.DetourLimit
	if relax&relaxDetour != 0 {
		limit = math.Inf(1)
	}
	ignoreOrder := relax&relaxOrder != 0
	bestTotal := limit + 1
	for i := range sups {
		s := &sups[i]
		if s.Detour >= bestTotal {
			break // sorted by detour
		}
		for j := range dups {
			d := &dups[j]
			total := s.Detour + d.Detour
			if total >= bestTotal {
				break
			}
			if !ignoreOrder && (d.Order < s.Order || d.Dist < s.Dist && r.SupportETA(*d) < r.SupportETA(*s)) {
				continue // drop-off support (or its estimate) precedes the pickup's
			}
			if total > limit {
				continue
			}
			bestTotal, ps, pd = total, s, d
			break
		}
	}
	return ps, pd
}

// classifyDetourReject attributes a bestSupportPair failure to its
// binding constraint for the funnel: if any support pair is
// order-feasible (drop-off support at or after the pickup support in
// both route order and ETA), only the detour budget stood in the way;
// otherwise no valid ordering exists at all (including the
// no-support-pair case). Runs only for quality-tracked searches, on
// the already-rejected slow path.
func classifyDetourReject(r *index.Ride, cs, cd int) int {
	dups := r.Supports(cd)
	for _, s := range r.Supports(cs) {
		for _, d := range dups {
			if d.Order >= s.Order && r.SupportETA(d) >= r.SupportETA(s) {
				return quality.DetourBound
			}
		}
	}
	return quality.OrderInfeasible
}
