package main

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"xar/internal/core"
	"xar/internal/server"
	"xar/internal/workload"
)

// runOpts selects one run of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64 // measured time to accumulate before stopping
	traced   bool
	// div divides every op count (and the trip window with it, keeping
	// the density): 1 is the benchmark, 20 the determinism tests. The
	// property bands are only asserted at full size.
	div      int
	traceOut string // span file of the traced pass, "" for none
	root     string // checkout root, needed by http_mix alone

	serverBin string // xarserver built from root; run fills it in
}

// A run makes at least minInstances instances — set-up plus one
// fixed-work round — and keeps going until the measured phases add up to
// opts.seconds, so set-up time is a median of several set-ups and a
// faster program measures more rounds, never a shorter one. Where set-up
// is cheap next to the round, two more instances steady the medians; on
// the search workloads a set-up costs as much as the round itself.
var minInstances = map[string]int{"replay_city": 5, "search_dense": 3, "search_sparse": 3, "http_mix": 5}

const maxInstances = 8

// report is what one run prints.
type report struct {
	workload   string
	values     map[string]float64
	samples    map[string]int // sample count behind a timing
	attempted  int
	failed     int
	violations []string
	notes      []string
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) absorb(samples ...*sample) {
	for _, s := range samples {
		r.attempted += s.attempted
		r.failed += s.failed
		r.violations = append(r.violations, s.violations...)
	}
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// run executes one run of opts.workload.
func run(o runOpts) (*report, error) {
	if o.div < 1 {
		o.div = 1
	}
	if !slices.Contains(workloadNames, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if o.workload == "http_mix" {
		bin, err := buildServer(o.root)
		if err != nil {
			return nil, err
		}
		o.serverBin = bin
	}
	// The host figures explain a noisy run and never gate: a fixed
	// pure-CPU kernel timed before and after, and the steal share.
	spin0 := spinMS()
	total0, steal0 := cpuJiffies()
	var r *report
	var err error
	switch {
	case !o.traced:
		r, err = runEndToEnd(o)
	case o.workload == "http_mix":
		r, err = runTracedHTTPMix(o)
	default:
		r, err = runTracedInProcess(o)
	}
	if err != nil {
		return nil, err
	}
	total1, steal1 := cpuJiffies()
	spin1, steal := spinMS(), ratio(steal1-steal0, total1-total0)
	if !o.traced {
		r.notes = append(r.notes, fmt.Sprintf("host.spin_ms_before %.1f, host.spin_ms_after %.1f, host.steal_share %.4f", spin0, spin1, steal))
		return r, nil
	}
	r.values["host.nproc"] = float64(runtime.NumCPU())
	r.values["host.spin_ms_before"] = spin0
	r.values["host.spin_ms_after"] = spin1
	r.values["host.steal_share"] = steal
	r.values["load.clock_pair_ns"] = clockPairNS()
	r.values["load.failed_share"] = ratio(float64(r.failed), float64(r.attempted))
	return r, nil
}

// untracedInstance makes one instance of an in-process workload or of
// http_mix with tracing off. Only the first instance of a run measures
// the index: the fleet is the same every time.
func untracedInstance(o runOpts, first bool) (*sample, error) {
	settle() // the previous instance's engine is garbage by now
	switch o.workload {
	case "replay_city":
		in, err := replayInstance(o.seed, o.div, nil)
		if err != nil {
			return nil, err
		}
		if first {
			in.s.indexBytesPerRide = indexBytesPerRide(in.eng)
		}
		return in.s, nil
	case "http_mix":
		in, err := httpMixInstance(o.serverBin, o.seed, mixOps/o.div, nil)
		if err != nil {
			return nil, err
		}
		return in.s, nil
	default:
		spec := searchSpecs[o.workload]
		in, err := searchInstance(spec, o.seed, o.div, nil)
		if err != nil {
			return nil, err
		}
		if first {
			in.s.indexBytesPerRide = indexBytesPerRide(in.eng)
		}
		bookingTail(in, spec.books/o.div, nil)
		return in.s, nil
	}
}

func runEndToEnd(o runOpts) (*report, error) {
	var samples []*sample
	measured := 0.0
	for len(samples) < minInstances[o.workload] || (measured < o.seconds && len(samples) < maxInstances) {
		total0, steal0 := cpuJiffies()
		s, err := untracedInstance(o, len(samples) == 0)
		if err != nil {
			return nil, err
		}
		total1, steal1 := cpuJiffies()
		s.steal = ratio(steal1-steal0, total1-total0)
		samples = append(samples, s)
		measured += s.wallS
	}
	r := newReport(o.workload)
	r.absorb(samples...)
	r.notes = append(r.notes, fmt.Sprintf("%d instances, %.1f s measured", len(samples), measured))
	for i, s := range samples {
		r.notes = append(r.notes, fmt.Sprintf("instance %d: setup %.3f s, %.0f ops/s, search p50 %.1f us, steal %.4f",
			i, s.setupS, throughput(s), quantile(s.lat[kSearch], 0.5)/1e3, s.steal))
	}

	over := func(f func(*sample) float64) float64 {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, f(s))
		}
		return medianOf(xs)
	}
	latency := func(name string, kind int, q float64) {
		n := 0
		r.values[name] = over(func(s *sample) float64 {
			n += len(s.lat[kind])
			return quantile(s.lat[kind], q) / 1e3
		})
		r.samples[name] = n
	}
	r.values["setup_s"] = over(func(s *sample) float64 { return s.setupS })
	r.samples["setup_s"] = len(samples)
	r.values["throughput_ops_s"] = over(throughput)
	r.samples["throughput_ops_s"] = len(samples)
	latency("search_p50_us", kSearch, 0.50)
	latency("search_p95_us", kSearch, 0.95)
	latency("book_p50_us", kBook, 0.50)
	latency("create_p50_us", kCreate, 0.50)
	r.values["match_rate"] = over(func(s *sample) float64 { return matchRate(o.workload, s) })
	r.values["index_bytes_per_ride"] = over(func(s *sample) float64 {
		if s.indexBytesPerRide == 0 {
			return samples[0].indexBytesPerRide
		}
		return s.indexBytesPerRide
	})
	if o.workload == "http_mix" {
		r.values["rss_peak_mb"] = over(func(s *sample) float64 { return s.rssPeakMB })
	} else {
		r.values["rss_peak_mb"] = vmHWMMB(os.Getpid())
	}
	if o.div == 1 {
		checkBands(r, o.workload, samples)
	}
	return r, nil
}

// matchRate is trips served by an existing ride over trips on
// replay_city, and searches with at least one match over searches
// elsewhere.
func matchRate(workload string, s *sample) float64 {
	if workload == "replay_city" {
		return ratio(float64(s.served), float64(s.units))
	}
	return ratio(float64(s.matched), float64(s.searches))
}

// checkBands asserts the property each workload is defined by, so that
// drifting inputs fail loudly instead of quietly measuring something else.
func checkBands(r *report, workload string, samples []*sample) {
	for _, s := range samples {
		mr := matchRate(workload, s)
		switch workload {
		case "replay_city":
			if mr < 0.65 || mr > 0.85 {
				r.violate("replay_city match_rate %.4f outside [0.65, 0.85]", mr)
			}
		case "search_dense":
			if mps := ratio(float64(s.matches), float64(s.searches)); mps < 20 {
				r.violate("search_dense matches per search %.1f < 20", mps)
			}
		case "search_sparse":
			if mr < 0.02 || mr > 0.10 {
				r.violate("search_sparse match_rate %.4f outside [0.02, 0.10]", mr)
			}
		case "http_mix":
			if mr < 0.10 {
				r.violate("http_mix match_rate %.4f < 0.10: the fleet is too thin to book against", mr)
			}
		}
	}
}

// coreMetrics derives the core layer's part of the ledger from the
// "core.*" spans of a traced round and from its sample.
func coreMetrics(r *report, s *sample, l *ledger) {
	for _, kind := range []string{"search", "book", "create", "track"} {
		busy := l.busySeconds("core." + kind)
		r.values["core."+kind+"_busy_s"] = busy
		r.values["core."+kind+"_calls"] = float64(l.calls("core." + kind))
		r.values["core."+kind+"_share"] = ratio(busy, s.wallS)
	}
	r.values["core.search_p99_us"] = quantile(s.lat[kSearch], 0.99) / 1e3
	r.values["core.book_p99_us"] = quantile(s.lat[kBook], 0.99) / 1e3
	r.values["core.create_p99_us"] = quantile(s.lat[kCreate], 0.99) / 1e3
	r.values["core.book_stale"] = float64(s.stale)
	r.values["core.book_conflict_retries"] = float64(s.retries)
	r.values["core.matches_per_search"] = ratio(float64(s.matches), float64(s.searches))
	r.values["core.candidates_per_search"] = ratio(float64(s.candidates), float64(s.searches))
	r.values["core.match_yield"] = ratio(float64(s.matches), float64(s.candidates))

	// Fixed cost: the median search that found nothing. What is left of
	// the busy time after every search paid it is the per-match cost.
	var empty []int64
	var busyNS, matches float64
	for i, d := range l.dur["core.search"] {
		busyNS += float64(d)
		matches += float64(l.n["core.search"][i])
		if l.n["core.search"][i] == 0 {
			empty = append(empty, d)
		}
	}
	fixedNS := quantile(empty, 0.5)
	r.values["core.search_fixed_us"] = fixedNS / 1e3
	r.values["core.search_per_match_us"] = ratio(busyNS-fixedNS*float64(l.calls("core.search")), matches) / 1e3

	r.values["roadnet.sp_calls_per_create"] = ratio(float64(s.spCreate), float64(len(s.lat[kCreate])))
	r.values["roadnet.sp_calls_per_book"] = ratio(float64(s.spBook), float64(len(s.lat[kBook])))
}

// probeLayers runs the layer probes on the world and fleet of a traced
// instance, over the requests of its round, and folds their spans into
// the report. Searches of the allocation probe ask for k matches.
func probeLayers(r *report, in *instance, reqs []workload.Trip, k int) (*recorder, error) {
	rec := newRecorder(3*in.eng.NumRides() + 3*probeRequests + 3*probePairs + 16)
	if err := probeIndex(in.eng, reqs, rec, r.values); err != nil {
		return nil, fmt.Errorf("index probe: %w", err)
	}
	probeDiscretize(in.w, reqs, rec, r.values)
	if err := probeRoadnet(in.w, reqs, rec, r.values); err != nil {
		return nil, fmt.Errorf("roadnet probe: %w", err)
	}
	probeSearchAllocs(in.eng, reqs, k, r.values)

	l := buildLedger(rec.recorded())
	r.values["index.potential_rides_ns"] = l.quantileUS("index.potential_rides", 0.5) * 1e3
	r.values["index.insert_us"] = l.quantileUS("index.insert", 0.5)
	r.values["index.reregister_us"] = l.quantileUS("index.reregister", 0.5)
	r.values["index.remove_us"] = l.quantileUS("index.remove", 0.5)
	r.values["discretize.side_lookup_ns"] = l.quantileUS("discretize.side_lookup", 0.5) * 1e3
	for _, name := range []string{"astar", "alt", "ch"} {
		r.values["roadnet.query_us."+name] = l.quantileUS("roadnet.query."+name, 0.5)
	}
	r.values["discretize.build_s"] = in.w.discS
	r.values["roadnet.generate_city_s"] = in.w.cityS
	r.values["workload.generate_s"] = in.w.tripsS
	r.values["workload.trips"] = float64(len(in.w.trips))
	sum := in.w.inputsSHA256()
	raw, _ := hex.DecodeString(sum[:16])
	r.values["workload.inputs_sha256_48"] = float64(binary.BigEndian.Uint64(raw) >> 16)
	r.notes = append(r.notes, "inputs_sha256 "+sum)
	return rec, nil
}

// routerShares estimates how much of a create and a book the router
// accounts for: shortest-path calls × the router's median query time over
// the operation's median latency.
func routerShares(r *report, router string, createP50US, bookP50US float64) {
	q := r.values["roadnet.query_us."+router]
	r.values["roadnet.est_share_of_create"] = ratio(r.values["roadnet.sp_calls_per_create"]*q, createP50US)
	r.values["roadnet.est_share_of_book"] = ratio(r.values["roadnet.sp_calls_per_book"]*q, bookP50US)
}

// goMetrics reports what the Go runtime did over a traced measured phase.
func goMetrics(r *report, s *sample) {
	r.values["go.gc_cycles"] = float64(s.mem.gcCycles)
	r.values["go.gc_pause_total_ms"] = float64(s.mem.gcPauseNs) / 1e6
	r.values["go.heap_inuse_peak_mb"] = float64(s.mem.heapInuse) / (1 << 20)
	r.values["go.allocs_per_op"] = ratio(float64(s.mem.mallocs), float64(s.units))
	r.values["go.alloc_bytes_per_op"] = ratio(float64(s.mem.bytes), float64(s.units))
}

func throughput(s *sample) float64 { return ratio(float64(s.units), s.wallS) }

// runTracedInProcess makes one untraced and one traced instance (their
// throughput ratio is the cost of the traced pass), probes the layers on
// the fleet the traced round left and only then lets the booking tail
// mutate it.
func runTracedInProcess(o runOpts) (*report, error) {
	r := newReport(o.workload)
	spec, isSearch := searchSpecs[o.workload]
	make1 := func(rec *recorder) (*instance, error) {
		if isSearch {
			return searchInstance(spec, o.seed, o.div, rec)
		}
		return replayInstance(o.seed, o.div, rec)
	}
	first, err := make1(nil)
	if err != nil {
		return nil, err
	}
	// Keep the untraced sample only: two fleets at once would have the
	// traced round fight the collector for memory.
	untraced, capacity := first.s, 2*len(first.reqs)+3*len(first.w.trips)+16
	first = nil
	settle()
	rec := newRecorder(capacity)
	in, err := make1(rec)
	if err != nil {
		return nil, err
	}
	probeRec, err := probeLayers(r, in, in.reqs, 0)
	if err != nil {
		return nil, err
	}
	if isSearch {
		bookingTail(in, spec.books/o.div, rec)
	}
	r.absorb(untraced, in.s)
	if n := rec.dropped.Load(); n > 0 {
		r.violate("span buffer overflowed: %d spans dropped", n)
	}

	// The server, its observers and the HTTP floor do not exist in-process.
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "server.") || strings.HasPrefix(d.name, "observers.") || d.name == "load.http_floor_us" {
			r.values[d.name] = 0
		}
	}
	s := in.s
	coreMetrics(r, s, buildLedger(rec.recorded()))
	goMetrics(r, s)
	routerShares(r, in.eng.Router(), quantile(s.lat[kCreate], 0.5)/1e3, quantile(s.lat[kBook], 0.5)/1e3)
	r.values["load.gen_cpu_share"] = ratio(s.cpuS, s.wallS)
	r.values["trace.overhead_ratio"] = ratio(throughput(untraced), throughput(s)) - 1
	r.values["trace.spans"] = float64(len(rec.recorded()))
	if o.div == 1 {
		checkBands(r, o.workload, []*sample{untraced, s})
	}
	return r, writeTrace(o, rec, probeRec)
}

// writeTrace writes the spans of the given recorders — the last traced
// instance (or every traced arm of http_mix) and the probes — as JSON
// lines, span ids renumbered so they stay unique across recorders.
func writeTrace(o runOpts, recs ...*recorder) error {
	if o.traceOut == "" {
		return nil
	}
	var spans []span
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		offset := int32(len(spans))
		for _, s := range rec.recorded() {
			if s.Span == 0 {
				continue
			}
			s.Span += offset
			if s.Parent != 0 {
				s.Parent += offset
			}
			spans = append(spans, s)
		}
	}
	path := o.traceOut
	if !filepath.IsAbs(path) && o.root != "" {
		path = filepath.Join(o.root, path)
	}
	return writeSpans(path, spans)
}

func runTracedHTTPMix(o runOpts) (*report, error) {
	r := newReport(o.workload)
	bin := o.serverBin
	ops := mixOps / o.div
	capacity := 6*(ops+mixWarmOps) + 16

	// Arm A: the shipped server, client untraced — the reference.
	armA, err := httpMixInstance(bin, o.seed, ops, nil)
	if err != nil {
		return nil, err
	}
	// Arm B: the same with client spans — the cost of the traced pass.
	recB := newRecorder(capacity)
	armB, err := httpMixInstance(bin, o.seed, ops, recB)
	if err != nil {
		return nil, err
	}
	// Arm C: every observer flag off — what the observers cost.
	armC, err := httpMixInstance(bin, o.seed, ops, nil, observersOff...)
	if err != nil {
		return nil, err
	}
	r.absorb(armA.s, armB.s, armC.s)

	// Arms D–F run in this process: the engine alone, the server's
	// handler behind a span-recording wrapper, and a no-op handler.
	w, err := buildWorld(mixWorld, o.seed, true)
	if err != nil {
		return nil, err
	}
	recD := newRecorder(capacity)
	armD, err := engineArm(w, o.seed, ops, recD)
	if err != nil {
		return nil, err
	}
	armD.reqs = w.trips[mixSeedRides+mixWarmOps : mixSeedRides+mixWarmOps+ops]
	probeRec, err := probeLayers(r, armD, armD.reqs, mixK)
	if err != nil {
		return nil, err
	}

	cfg, serverOpts := shippedEngineConfig()
	eng, err := core.NewEngine(w.disc, cfg)
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	defer eng.Close()
	handlerE := server.New(eng, core.NewSocialGraph(), serverOpts...).Handler()
	recE := newRecorder(capacity)
	m0 := readMem()
	armE, err := handlerArm(handlerE, w.disc.Epsilon(), w.trips, o.seed, ops, recE, true)
	if err != nil {
		return nil, err
	}
	memE := memSince(&m0)
	recF := newRecorder(capacity)
	m0 = readMem()
	armF, err := handlerArm(noopHandler, w.disc.Epsilon(), w.trips, o.seed, ops, recF, false)
	if err != nil {
		return nil, err
	}
	memF := memSince(&m0)
	r.absorb(armD.s, armE)
	for _, rec := range []*recorder{recB, recD, recE, recF} {
		if rec.dropped.Load() > 0 {
			r.violate("span buffer overflowed: %d spans dropped", rec.dropped.Load())
		}
	}

	engine := buildLedger(recD.recorded())
	coreMetrics(r, armD.s, engine)
	goMetrics(r, armD.s)
	routerShares(r, armD.eng.Router(), engine.quantileUS("core.create", 0.5), engine.quantileUS("core.book", 0.5))

	handler := buildLedger(recE.recorded())
	for _, kind := range []string{"search", "book", "create"} {
		h := handler.quantileUS("server.handler."+kind, 0.5)
		r.values["server.handler_p50_us."+kind] = h
		r.values["server.self_p50_us."+kind] = h - engine.quantileUS("core."+kind, 0.5)
	}
	// A round trip's self time is what the handler's span does not cover.
	var transport []int64
	for _, kind := range kindNames {
		transport = append(transport, handler.self["client."+kind]...)
	}
	r.values["server.transport_p50_us"] = quantile(transport, 0.5) / 1e3
	clientSearchP50 := quantile(armA.s.lat[kSearch], 0.5) / 1e3
	share := ratio(engine.quantileUS("core.search", 0.5), clientSearchP50)
	r.values["server.engine_share_of_client.search"] = share
	if o.div == 1 && share > 0.30 {
		r.violate("http_mix engine share of client search p50 %.2f > 0.30: the workload no longer measures the server", share)
	}
	r.values["server.req_bytes_p50"] = quantile(armA.stats.reqBytes, 0.5)
	r.values["server.resp_bytes_p50.search"] = quantile(armA.stats.searchRespBytes, 0.5)
	r.values["server.status_4xx_share"] = ratio(float64(armA.stats.status4xx), float64(armA.stats.requests))
	r.values["server.status_5xx"] = float64(armA.stats.status5xx)
	// Arms E and F allocate in one process for client and server alike;
	// the no-op arm is the client's and net/http's part of it.
	reqsE, reqsF := float64(armE.attempted), float64(armF.attempted)
	r.values["server.allocs_per_req"] = ratio(float64(memE.mallocs), reqsE) - ratio(float64(memF.mallocs), reqsF)
	r.values["server.alloc_bytes_per_req"] = ratio(float64(memE.bytes), reqsE) - ratio(float64(memF.bytes), reqsF)

	r.values["observers.overhead_ratio"] = ratio(throughput(armC.s), throughput(armA.s)) - 1
	r.values["observers.rss_delta_mb"] = armA.s.rssPeakMB - armC.s.rssPeakMB
	r.values["load.http_floor_us"] = buildLedger(recF.recorded()).quantileUS("client.search", 0.5)
	genShare := ratio(armA.s.cpuS, armA.s.wallS)
	r.values["load.gen_cpu_share"] = genShare
	if genShare > 0.5 {
		r.notes = append(r.notes, fmt.Sprintf("FLAG: generator used %.2f CPUs: http_mix is measuring the generator", genShare))
	}
	r.values["trace.overhead_ratio"] = ratio(throughput(armA.s), throughput(armB.s)) - 1
	r.values["trace.spans"] = float64(len(recB.recorded()))
	if o.div == 1 {
		checkBands(r, o.workload, []*sample{armA.s, armB.s})
	}
	return r, writeTrace(o, recB, recD, recE, probeRec)
}
