package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xar/internal/core"
	"xar/internal/index"
	"xar/internal/roadnet"
	"xar/internal/server"
	"xar/internal/workload"
)

// http_mix drives the shipped xarserver, on its default 40×22 world,
// with the deployment-shaped mix xarload uses (load.DefaultMix): search
// 70 %, book 15 % (a search, then a booking of its first match), create
// 10 %, track 4 %, cancel 1 %; searches ask for k = 5.
var (
	mixWorld   = worldSpec{rows: 40, cols: 22, trips: 20000, hours: 6}
	mixWeights = [numKinds]float64{kSearch: 0.70, kBook: 0.15, kCreate: 0.10, kTrack: 0.04, kCancel: 0.01}
)

const (
	mixSeedRides = 1000 // the first trips, created over HTTP during set-up
	mixWarmOps   = 2000 // issued before the measured phase, unrecorded
	mixOps       = 7000 // the measured phase: scheduled operations of one round
	mixK         = 5
)

// mixOp is one scheduled operation: a kind and the trip that shapes it.
type mixOp struct {
	kind int
	trip workload.Trip
}

// mixOpList draws warm+n operations from seed; op i takes trip
// mixSeedRides+i, so simulated time moves forward through the list.
func mixOpList(trips []workload.Trip, seed int64, n int) []mixOp {
	rng := rand.New(rand.NewSource(seed + 2))
	ops := make([]mixOp, n)
	for i := range ops {
		x := rng.Float64()
		kind := kSearch
		for k, w := range mixWeights {
			if x -= w; x < 0 {
				kind = k
				break
			}
		}
		ops[i] = mixOp{kind: kind, trip: trips[(mixSeedRides+i)%len(trips)]}
	}
	return ops
}

// mixPools is the bookkeeping the op list needs and the workers share:
// rides to track and bookings to cancel, both bounded.
type mixPools struct {
	mu       sync.Mutex
	rides    []index.RideID
	cursor   int
	bookings []bookingRef
}

const mixPoolCap = 4096

func (p *mixPools) addRide(id index.RideID) {
	p.mu.Lock()
	if len(p.rides) < mixPoolCap {
		p.rides = append(p.rides, id)
	} else {
		p.rides[p.cursor%len(p.rides)] = id
	}
	p.cursor++
	p.mu.Unlock()
}

func (p *mixPools) pickRide() (index.RideID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.rides) == 0 {
		return 0, false
	}
	p.cursor++
	return p.rides[p.cursor%len(p.rides)], true
}

func (p *mixPools) dropRide(id index.RideID) {
	p.mu.Lock()
	for i, r := range p.rides {
		if r == id {
			p.rides[i] = p.rides[len(p.rides)-1]
			p.rides = p.rides[:len(p.rides)-1]
			break
		}
	}
	p.mu.Unlock()
}

func (p *mixPools) addBooking(b bookingRef) {
	p.mu.Lock()
	if len(p.bookings) < mixPoolCap {
		p.bookings = append(p.bookings, b)
	}
	p.mu.Unlock()
}

func (p *mixPools) popBooking() (bookingRef, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bookings) == 0 {
		return bookingRef{}, false
	}
	b := p.bookings[len(p.bookings)-1]
	p.bookings = p.bookings[:len(p.bookings)-1]
	return b, true
}

// mixTarget is one worker's way to the system under test: the engine
// in-process, or an HTTP server over one keep-alive connection. Each
// method makes exactly one timed call and records it.
type mixTarget interface {
	begin(i int) int64
	end(start int64)
	// search returns the number of matches and keeps them for bookFirst.
	search(t workload.Trip) int
	bookFirst(t workload.Trip) (bookingRef, bool)
	create(t workload.Trip) (index.RideID, bool)
	track(id index.RideID, now float64) (arrived, ok bool)
	cancel(b bookingRef) bool
}

// doMixOp performs scheduled operation i the way xarload's targets do:
// track and cancel fall back to a search while their pool is empty.
func doMixOp(tg mixTarget, pools *mixPools, i int, op mixOp) {
	u := tg.begin(i)
	defer tg.end(u)
	switch op.kind {
	case kBook:
		if tg.search(op.trip) > 0 {
			if b, ok := tg.bookFirst(op.trip); ok {
				pools.addBooking(b)
			}
		}
		return
	case kCreate:
		if id, ok := tg.create(op.trip); ok {
			pools.addRide(id)
		}
		return
	case kTrack:
		if id, ok := pools.pickRide(); ok {
			if arrived, ok := tg.track(id, op.trip.RequestTime); arrived || !ok {
				pools.dropRide(id)
			}
			return
		}
	case kCancel:
		if b, ok := pools.popBooking(); ok {
			tg.cancel(b)
			return
		}
	}
	tg.search(op.trip)
}

// runMix issues ops over the targets, closed loop: each worker takes the
// next unissued operation when its previous one has completed. It
// returns the wall time.
func runMix(targets []mixTarget, pools *mixPools, ops []mixOp, firstIndex int) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, tg := range targets {
		wg.Add(1)
		go func(tg mixTarget) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				doMixOp(tg, pools, firstIndex+i, ops[i])
			}
		}(tg)
	}
	wg.Wait()
	return time.Since(start)
}

// engineTarget is the in-process arm: the same op list against the
// engine's public calls, no HTTP anywhere.
type engineTarget struct {
	*engineOps
	last []core.Match
}

func (e *engineTarget) search(t workload.Trip) int {
	e.last = e.engineOps.search(requestOf(t), mixK)
	return len(e.last)
}

func (e *engineTarget) bookFirst(t workload.Trip) (bookingRef, bool) {
	bk, ok := e.book(e.last[0], requestOf(t))
	return bookingRef{ride: bk.Ride, pickup: bk.PickupNode, dropoff: bk.DropoffNode}, ok
}

func (e *engineTarget) create(t workload.Trip) (index.RideID, bool) {
	return e.engineOps.create(offerOf(t))
}

// httpStats is what one connection saw on the wire.
type httpStats struct {
	requests, status4xx, status5xx int
	reqBytes, searchRespBytes      []int64
}

// httpTarget is one keep-alive connection to an HTTP server.
type httpTarget struct {
	caller
	base   string
	client *http.Client
	eps4   float64
	stats  httpStats

	reqBuf  bytes.Buffer
	respBuf bytes.Buffer
	lastReq server.SearchRequest
	last    []server.MatchJSON
}

// newHTTPClient returns a client that keeps at most conns connections
// to the server, so the generator uses exactly that many.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
}

func newHTTPTarget(base string, client *http.Client, eps float64, s *sample, rec *recorder) *httpTarget {
	h := &httpTarget{caller: caller{s: s, rec: rec}, base: base, client: client, eps4: 4 * eps}
	h.setPhase("client.")
	return h
}

// benchSpanHeader carries "trace,span" of the client round trip to the
// traced pass's wrapped handler. xarserver ignores it.
const benchSpanHeader = "X-Bench-Span"

// roundTrip makes one timed request and records it. A 2xx reply is
// decoded into out; 404, 409 and 422 are the wire form of the engine's
// domain rejections; a transport error or any other status is a failure.
func (h *httpTarget) roundTrip(kind int, method, path string, body, out any) (ok bool) {
	var span int32
	if h.rec != nil {
		span = h.rec.reserve()
	}
	t0 := clock()
	status, err := h.exchange(method, path, body, out, span)
	t1 := clock()

	h.stats.requests++
	switch {
	case err != nil:
	case status >= 500:
		h.stats.status5xx++
		err = fmt.Errorf("%s %s: HTTP %d", method, path, status)
	case status >= 400:
		h.stats.status4xx++
		if status != http.StatusNotFound && status != http.StatusConflict && status != http.StatusUnprocessableEntity {
			err = fmt.Errorf("%s %s: HTTP %d", method, path, status)
		}
	}
	n := 0
	if sr, isSearch := out.(*server.SearchResponse); isSearch {
		n = len(sr.Matches)
	}
	h.record(kind, span, t0, t1, n, err)
	return err == nil && status < 300
}

func (h *httpTarget) exchange(method, path string, body, out any, span int32) (int, error) {
	h.reqBuf.Reset()
	if err := json.NewEncoder(&h.reqBuf).Encode(body); err != nil {
		return 0, err
	}
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(h.reqBuf.Bytes()))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(benchSpanHeader, strconv.Itoa(int(h.trace))+","+strconv.Itoa(int(span)))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	h.respBuf.Reset()
	if _, err := h.respBuf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	h.stats.reqBytes = append(h.stats.reqBytes, int64(h.reqBuf.Len()))
	if path == "/v1/search" {
		h.stats.searchRespBytes = append(h.stats.searchRespBytes, int64(h.respBuf.Len()))
	}
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if err := json.Unmarshal(h.respBuf.Bytes(), out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s reply: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

func searchRequestOf(t workload.Trip) server.SearchRequest {
	return server.SearchRequest{
		Source:    server.PointJSON{Lat: t.Pickup.Lat, Lng: t.Pickup.Lng},
		Dest:      server.PointJSON{Lat: t.Dropoff.Lat, Lng: t.Dropoff.Lng},
		Earliest:  t.RequestTime,
		Latest:    t.RequestTime + windowSlackS,
		WalkLimit: walkLimitM,
		K:         mixK,
	}
}

func (h *httpTarget) search(t workload.Trip) int {
	h.lastReq = searchRequestOf(t)
	var resp server.SearchResponse
	h.roundTrip(kSearch, http.MethodPost, "/v1/search", h.lastReq, &resp)
	h.last = resp.Matches
	h.recordSearch(len(h.last))
	return len(h.last)
}

func (h *httpTarget) bookFirst(t workload.Trip) (bookingRef, bool) {
	var bk server.BookingJSON
	if !h.roundTrip(kBook, http.MethodPost, "/v1/bookings", server.BookRequest{Match: h.last[0], Request: h.lastReq}, &bk) {
		h.s.stale++
		return bookingRef{}, false
	}
	checkBooking(h.s, bk.RideID, bk.ShortestPaths, bk.ApproxErrorM, h.eps4)
	return bookingRef{ride: index.RideID(bk.RideID), pickup: roadnet.NodeID(bk.PickupNode), dropoff: roadnet.NodeID(bk.DropoffNode)}, true
}

func (h *httpTarget) create(t workload.Trip) (index.RideID, bool) {
	var resp server.CreateRideResponse
	ok := h.roundTrip(kCreate, http.MethodPost, "/v1/rides", server.CreateRideRequest{
		Source:      server.PointJSON{Lat: t.Pickup.Lat, Lng: t.Pickup.Lng},
		Dest:        server.PointJSON{Lat: t.Dropoff.Lat, Lng: t.Dropoff.Lng},
		Departure:   t.RequestTime + windowSlackS/2,
		Seats:       seats,
		DetourLimit: detourLimitM,
	}, &resp)
	return index.RideID(resp.RideID), ok
}

func (h *httpTarget) track(id index.RideID, now float64) (arrived, ok bool) {
	var resp server.TrackResponse
	ok = h.roundTrip(kTrack, http.MethodPost, "/v1/track", server.TrackRequest{RideID: int64(id), Now: &now}, &resp)
	return resp.Arrived, ok
}

func (h *httpTarget) cancel(b bookingRef) bool {
	return h.roundTrip(kCancel, http.MethodDelete, "/v1/bookings", server.CancelRequest{
		RideID: int64(b.ride), PickupNode: int64(b.pickup), DropoffNode: int64(b.dropoff),
	}, nil)
}

// getJSON fetches one of the server's read-only documents, outside any
// measured phase.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // only to reuse the connection
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// mixRound is the warm-up and the measured phase of one mixed-load
// round over workers targets made by newTarget. The warm-up runs on
// targets of its own, untraced, so nothing it measures is recorded
// except its failures. It returns the merged sample, with wallS and
// units set, and the measured phase's targets.
func mixRound(newTarget func(*sample, *recorder) mixTarget, workers int, rec *recorder, trips []workload.Trip, seed int64, ops int) (*sample, []mixTarget) {
	pools := &mixPools{}
	list := mixOpList(trips, seed, mixWarmOps+ops)
	phase := func(rec *recorder, ops []mixOp, first int) (*sample, []mixTarget, time.Duration) {
		samples := make([]*sample, workers)
		targets := make([]mixTarget, workers)
		for i := range targets {
			samples[i] = newSample([numKinds]int{kSearch: len(ops), kBook: len(ops), kCreate: len(ops), kTrack: len(ops), kCancel: len(ops)})
			targets[i] = newTarget(samples[i], rec)
		}
		wall := runMix(targets, pools, ops, first)
		return mergeSamples(samples), targets, wall
	}
	warm, _, _ := phase(nil, list[:mixWarmOps], -mixWarmOps)
	settle()
	m0, cpu0 := readMem(), processCPUSeconds()
	s, targets, wall := phase(rec, list[mixWarmOps:], 0)
	s.wallS, s.units = wall.Seconds(), ops
	s.mem, s.cpuS = memSince(&m0), processCPUSeconds()-cpu0
	s.absorbFailures(warm)
	return s, targets
}

// mergeSamples pools what the workers of one phase measured.
func mergeSamples(samples []*sample) *sample {
	m := &sample{}
	for _, s := range samples {
		for k := range s.lat {
			m.lat[k] = append(m.lat[k], s.lat[k]...)
		}
		m.searches += s.searches
		m.matched += s.matched
		m.matches += s.matches
		m.stale += s.stale
		m.attempted += s.attempted
		m.failed += s.failed
		m.spCreate += s.spCreate
		m.spBook += s.spBook
		m.candidates += s.candidates
		m.violations = append(m.violations, s.violations...)
	}
	return m
}
