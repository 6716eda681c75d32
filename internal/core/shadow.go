package core

import (
	"sync"
	"sync/atomic"
	"time"

	"xar/internal/quality"
	"xar/internal/telemetry"
)

// The shadow counterfactual matcher re-runs a sample of requests off
// the request path to answer two questions the production funnel
// cannot:
//
//   - For a request that matched nothing: which single constraint,
//     if relaxed, would have unlocked a match? The funnel says at which
//     stage candidates died; the shadow run says which constraint was
//     *binding* for the request as a whole (xar_shadow_unlock_total).
//
//   - For a request that booked: how much worse was the greedy choice
//     than the best alternative still available? That greedy-regret
//     number is the baseline the planned MatchMode=batch matcher has
//     to beat.
//
// Both run on a single background worker fed by a bounded queue; the
// request path pays one sampled atomic and a non-blocking channel send,
// and a full queue drops the task (xar_shadow_dropped_total) rather
// than ever blocking a search or booking. Counterfactual searches
// bypass metrics, traces, the journal, and the funnel entirely.

// shadowQueueDepth bounds the task queue. Shadow work is advisory: on
// overload we drop samples, never delay requests.
const shadowQueueDepth = 256

// shadowWalkRelaxFactor / shadowWalkRelaxFloor define the relaxed walk
// limit: generous enough (4× + 400 m) that a walk-bound request almost
// always unlocks, without scanning the whole city.
const (
	shadowWalkRelaxFactor = 4
	shadowWalkRelaxFloor  = 400
)

type shadowTaskKind uint8

const (
	shadowNoMatch shadowTaskKind = iota
	shadowRegret
)

type shadowTask struct {
	kind shadowTaskKind
	req  Request
	// chosenWalk is the booked match's total walk (regret tasks only).
	chosenWalk float64
}

type shadowMatcher struct {
	e  *Engine
	qc *quality.Collector

	tasks chan shadowTask
	// sampleMask implements the 1-in-N sampling exactly like search
	// telemetry: rate rounded up to a power of two, one atomic
	// increment plus a mask test per candidate event.
	sampleMask uint32
	seq        atomic.Uint32
	// inflight counts tasks accepted but not yet fully processed;
	// ShadowFlush polls it to zero for deterministic tests and drains.
	inflight atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newShadowMatcher(e *Engine, qc *quality.Collector, rate int) *shadowMatcher {
	m := &shadowMatcher{
		e:          e,
		qc:         qc,
		tasks:      make(chan shadowTask, shadowQueueDepth),
		sampleMask: telemetry.SampleMask(rate),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go m.worker()
	return m
}

func (m *shadowMatcher) close() {
	if m == nil {
		return
	}
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// offerNoMatch samples a no-match request into the queue. Nil-receiver
// safe: the call sits on the search path, which must stay one branch
// when the shadow matcher is off.
func (m *shadowMatcher) offerNoMatch(req Request) {
	if m == nil {
		return
	}
	m.offer(shadowTask{kind: shadowNoMatch, req: req}, quality.TaskNoMatch)
}

// offerRegret samples a successful booking for greedy-regret
// measurement. chosenWalk is the booked option's total walk.
func (m *shadowMatcher) offerRegret(req Request, chosenWalk float64) {
	if m == nil {
		return
	}
	m.offer(shadowTask{kind: shadowRegret, req: req, chosenWalk: chosenWalk}, quality.TaskRegret)
}

func (m *shadowMatcher) offer(t shadowTask, kind string) {
	if m.seq.Add(1)&m.sampleMask != 0 {
		return
	}
	m.inflight.Add(1)
	select {
	case m.tasks <- t:
		m.qc.ShadowTask(kind)
	default:
		m.inflight.Add(-1)
		m.qc.ShadowDropped()
	}
}

func (m *shadowMatcher) worker() {
	defer close(m.done)
	for {
		select {
		case t := <-m.tasks:
			m.run(t)
			m.inflight.Add(-1)
		case <-m.stop:
			// Drain what was already accepted, then exit.
			for {
				select {
				case t := <-m.tasks:
					m.run(t)
					m.inflight.Add(-1)
				default:
					return
				}
			}
		}
	}
}

func (m *shadowMatcher) run(t shadowTask) {
	switch t.kind {
	case shadowNoMatch:
		m.runNoMatch(t.req)
	case shadowRegret:
		m.runRegret(t.req, t.chosenWalk)
	}
}

// runNoMatch relaxes one constraint at a time and records every
// constraint whose relaxation alone unlocks at least one match — the
// per-request binding-constraint attribution. A request no single
// relaxation can unlock counts under "none" (several constraints bind
// at once, or the request is simply not servable).
func (m *shadowMatcher) runNoMatch(req Request) {
	unlocked := false
	try := func(constraint string, req Request, relax relaxFlags) {
		if len(m.e.shadowSearch(req, relax)) > 0 {
			m.qc.Unlock(constraint)
			unlocked = true
		}
	}

	walkReq := req
	walkReq.WalkLimit = req.WalkLimit*shadowWalkRelaxFactor + shadowWalkRelaxFloor
	try(quality.ConstraintWalk, walkReq, 0)

	// Widen the departure window by the engine's destination slack on
	// both sides — the same scale the index's window logic works at.
	windowReq := req
	windowReq.EarliestDeparture -= destWindowSlack
	windowReq.LatestDeparture += destWindowSlack
	try(quality.ConstraintWindow, windowReq, 0)

	try(quality.ConstraintDetour, req, relaxDetour)
	try(quality.ConstraintOrder, req, relaxOrder)

	if !unlocked {
		m.qc.Unlock(quality.ConstraintNone)
	}
}

// runRegret re-runs a booked request against the full candidate set
// and measures how much walking the greedy (first-result) choice cost
// over the best alternative still bookable. The re-run sees the
// post-booking state — the chosen ride's budget and seat are already
// charged — so the regret is with respect to what the next requester
// would find, a deliberate (and documented) approximation that keeps
// the shadow matcher entirely off the booking path.
func (m *shadowMatcher) runRegret(req Request, chosenWalk float64) {
	ms := m.e.shadowSearch(req, 0)
	if len(ms) == 0 {
		m.qc.ObserveRegret(0, false)
		return
	}
	regret := chosenWalk - ms[0].TotalWalk() // sorted by total walk
	if regret < 0 {
		regret = 0
	}
	m.qc.ObserveRegret(regret, true)
}

// shadowSearch runs the two-step search with a relaxation mask and no
// instrumentation whatsoever: no op metrics, no sampling, no spans, no
// journal events, no funnel counts. Counterfactuals must not pollute
// the production series they exist to explain.
func (e *Engine) shadowSearch(req Request, relax relaxFlags) []Match {
	if req.Validate() != nil {
		return nil
	}
	out, err := e.search(nil, req, false, false, searchOpts{relax: relax})
	if err != nil {
		return nil
	}
	return out
}

// ShadowFlush blocks until every shadow task accepted so far has been
// processed (deterministic tests, graceful drains). It does not wait
// for tasks still being offered concurrently. No-op without a shadow
// matcher.
func (e *Engine) ShadowFlush() {
	if e.shadow == nil {
		return
	}
	for e.shadow.inflight.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}
