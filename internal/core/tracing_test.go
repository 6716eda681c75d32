package core

import (
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"xar/internal/telemetry"
)

// tracedEngine builds a test engine with an always-sample tracer (and a
// registry, so exemplar cross-links can be asserted).
func tracedEngine(t testing.TB, mutate func(*Config)) (*Engine, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1})
	e, reg := newInstrumentedEngine(t, func(cfg *Config) {
		cfg.Tracer = tracer
		if mutate != nil {
			mutate(cfg)
		}
	})
	return e, reg, tracer
}

// spanNames collects the multiset of span names in a trace.
func spanNames(td *telemetry.TraceData) map[string]int {
	out := make(map[string]int)
	for _, sd := range td.Spans {
		out[sd.Name]++
	}
	out[td.Root]++
	return out
}

// TestSearchTraceTree pins the shape of a search trace: a "search" root
// carrying the match count, one "side_lookup" child and nothing else —
// and, only when the search is also metrics-sampled, the stage split as
// attributes of the root.
func TestSearchTraceTree(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sampleRate int
		stageSplit bool
	}{
		{"metrics-sampled", 1, true},
		{"trace only", 1 << 20, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, tracer := tracedEngine(t, func(cfg *Config) { cfg.SearchSampleRate = tc.sampleRate })
			src, dst := farPoints(t, e)
			id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500})
			if err != nil {
				t.Fatal(err)
			}
			ms, err := e.Search(requestAlong(e, e.Ride(id), 0.3, 0.7, 3600, 900))
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) == 0 {
				t.Fatal("the search along the ride matched nothing")
			}

			traces := tracer.Store().List(telemetry.TraceFilter{Op: "search"})
			if len(traces) != 1 {
				t.Fatalf("%d search traces recorded, want 1", len(traces))
			}
			doc := traces[0].Doc()
			if len(doc.Tree) != 1 || doc.Tree[0].Name != "search" {
				t.Fatalf("trace tree = %+v, want single search root", doc.Tree)
			}
			root := doc.Tree[0]
			if len(root.Children) != 1 || root.Children[0].Name != "side_lookup" || len(root.Children[0].Children) != 0 {
				t.Fatalf("search has children %+v, want exactly one side_lookup leaf", root.Children)
			}
			if got := root.Attrs["matches"]; got != float64(len(ms)) {
				t.Fatalf("root matches attr = %v, want %d", got, len(ms))
			}
			for _, attr := range []string{"candidate_scan_s", "final_check_s"} {
				if _, ok := root.Attrs[attr]; ok != tc.stageSplit {
					t.Fatalf("search span has %s: %v, want %v; attrs %+v", attr, ok, tc.stageSplit, root.Attrs)
				}
			}
		})
	}
}

func TestBookTracePathSearchSpans(t *testing.T) {
	e, _, tracer := tracedEngine(t, nil)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}

	// The create trace carries the offer's one shortest-path span.
	creates := tracer.Store().List(telemetry.TraceFilter{Op: "create"})
	if len(creates) != 1 {
		t.Fatalf("create traces = %d, want 1", len(creates))
	}
	if n := spanNames(creates[0])["path_search"]; n != 1 {
		t.Fatalf("create trace path_search spans = %d, want 1", n)
	}

	req := requestAlong(e, e.Ride(id), 0.3, 0.7, 3600, 900)
	ms, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("corridor search found no match on the seeded world")
	}
	bk, err := e.Book(ms[0], req)
	if err != nil {
		t.Fatal(err)
	}

	books := tracer.Store().List(telemetry.TraceFilter{Op: "book"})
	if len(books) != 1 {
		t.Fatalf("book traces = %d, want 1", len(books))
	}
	td := books[0]
	names := spanNames(td)
	if names["book_attempt"] < 1 {
		t.Fatalf("no book_attempt span; spans: %v", names)
	}
	if names["path_search"] != bk.ShortestPathRuns {
		t.Fatalf("path_search spans = %d, want the booking's %d shortest-path runs",
			names["path_search"], bk.ShortestPathRuns)
	}
	doc := td.Doc()
	if got := doc.Tree[0].Attrs["conflict_retries"]; got != float64(0) {
		t.Fatalf("conflict_retries attr = %v, want 0 (uncontended)", got)
	}
	// path_search spans nest under the attempt, not the root.
	var attempt *telemetry.SpanDoc
	for i := range doc.Tree[0].Children {
		if doc.Tree[0].Children[i].Name == "book_attempt" {
			attempt = &doc.Tree[0].Children[i]
		}
	}
	if attempt == nil {
		t.Fatalf("book_attempt not a direct child of book: %+v", doc.Tree[0].Children)
	}
	if got := attempt.Attrs["attempt"]; got != float64(1) {
		t.Fatalf("attempt attr = %v, want 1", got)
	}
	paths := 0
	for _, c := range attempt.Children {
		if c.Name == "path_search" {
			paths++
			if _, ok := c.Attrs["dist"]; !ok {
				t.Fatalf("path_search span missing dist attr: %+v", c.Attrs)
			}
		}
	}
	if paths != bk.ShortestPathRuns {
		t.Fatalf("path_search under attempt = %d, want %d", paths, bk.ShortestPathRuns)
	}

	// Cancel re-stitches with shortest paths, each traced.
	if err := e.CancelBooking(bk.Ride, bk.PickupNode, bk.DropoffNode); err != nil {
		t.Fatal(err)
	}
	cancels := tracer.Store().List(telemetry.TraceFilter{Op: "cancel"})
	if len(cancels) != 1 {
		t.Fatalf("cancel traces = %d, want 1", len(cancels))
	}
	if n := spanNames(cancels[0])["path_search"]; n == 0 {
		t.Fatal("cancel trace has no path_search spans")
	}
}

func TestTraceExemplarCrossLink(t *testing.T) {
	e, reg, tracer := tracedEngine(t, nil)
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(requestAlong(e, e.Ride(id), 0.3, 0.7, 3600, 900)); err != nil {
		t.Fatal(err)
	}

	// The search histogram must carry a trace-ID exemplar that resolves
	// in the tracer's store — the metrics→traces cross-link.
	found := false
	for _, ex := range telemetry.OpDuration(reg, "search").Exemplars() {
		if ex == nil {
			continue
		}
		tid, ok := telemetry.ParseTraceID(ex.TraceID)
		if !ok {
			t.Fatalf("exemplar trace_id %q does not parse", ex.TraceID)
		}
		if _, ok := tracer.Store().Get(tid); !ok {
			t.Fatalf("exemplar trace %s not resolvable in the store", ex.TraceID)
		}
		found = true
	}
	if !found {
		t.Fatal("no exemplar on the search histogram after a traced search")
	}

	// And the rendered exposition carries it on a bucket line.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `# {trace_id="`) {
		t.Fatal("Prometheus exposition has no exemplar suffix")
	}
}

func TestEngineContinuesUpstreamTrace(t *testing.T) {
	// An engine with no tracer of its own must still record child spans
	// into a trace begun upstream (the HTTP middleware's root).
	e, _ := newInstrumentedEngine(t, nil)
	upstream := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1})
	ctx, root := upstream.StartRoot(context.Background(), "/v1/search", telemetry.TraceID{}, telemetry.SpanID{})

	src, dst := farPoints(t, e)
	id, err := e.CreateRideCtx(ctx, RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SearchCtx(ctx, requestAlong(e, e.Ride(id), 0.3, 0.7, 3600, 900)); err != nil {
		t.Fatal(err)
	}
	root.End()

	td, ok := upstream.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("upstream trace not stored")
	}
	names := spanNames(td)
	for _, want := range []string{"create", "path_search", "search", "side_lookup"} {
		if names[want] == 0 {
			t.Fatalf("upstream trace missing %q spans; got %v", want, names)
		}
	}
}

func TestTraceRecordedSearchAlwaysTimed(t *testing.T) {
	// A trace-recorded search is fully timed into the histograms even
	// when the 1-in-N metric sampler skips it, so every stored trace has
	// an exemplar-capable observation.
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1})
	e, reg := newInstrumentedEngine(t, func(cfg *Config) {
		cfg.Tracer = tracer
		cfg.SearchSampleRate = 1 << 20 // metric sampler effectively off
	})
	src, dst := farPoints(t, e)
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	req := requestAlong(e, e.Ride(id), 0.3, 0.7, 3600, 900)
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := e.Search(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := telemetry.OpDuration(reg, "search").Count(); got != n {
		t.Fatalf("search observations = %d, want %d (every traced search timed)", got, n)
	}
}

func TestSlowOpLogCarriesTraceID(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleRate: 1})
	rec := &recordingHandler{}
	e, _ := newInstrumentedEngine(t, func(cfg *Config) {
		cfg.Tracer = tracer
		cfg.SlowOpThreshold = time.Nanosecond // everything is "slow"
		cfg.SlowOpLogger = slog.New(rec)
	})
	src, dst := farPoints(t, e)
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500}); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.records) == 0 {
		t.Fatal("no slow-op records")
	}
	id, ok := rec.records[0]["trace_id"].(string)
	if !ok || id == "" {
		t.Fatalf("slow-op record missing trace_id: %v", rec.records[0])
	}
	tid, ok := telemetry.ParseTraceID(id)
	if !ok {
		t.Fatalf("trace_id %q does not parse", id)
	}
	if _, ok := tracer.Store().Get(tid); !ok {
		t.Fatalf("slow-op trace %s not resolvable in the store", id)
	}
}

func TestIndexGaugesFreshEngine(t *testing.T) {
	// A freshly started engine must expose both occupancy gauges — at
	// zero — and refresh them at scrape time.
	e, reg := newInstrumentedEngine(t, nil)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"xar_index_rides 0\n", "xar_index_full_rides 0\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("fresh engine exposition missing %q:\n%s", want, b.String())
		}
	}

	// After a mutation, the next scrape reflects the new counts.
	src, dst := farPoints(t, e)
	if _, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 1000, DetourLimit: 2500}); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "xar_index_rides 1\n") || !strings.Contains(b.String(), "xar_index_full_rides 0\n") {
		t.Fatalf("post-create exposition lacks xar_index_rides 1 or a zero xar_index_full_rides:\n%s", b.String())
	}

	// A two-seat ride booked once is full.
	id, err := e.CreateRide(RideOffer{Source: src, Dest: dst, Departure: 9000, Seats: 2, DetourLimit: 2500})
	if err != nil {
		t.Fatal(err)
	}
	req, ms := mustSearchAlong(t, e, e.Ride(id), 0.3, 0.7, 600, 900)
	if _, err := e.Book(ms[0], req); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "xar_index_rides 2\n") || !strings.Contains(b.String(), "xar_index_full_rides 1\n") {
		t.Fatalf("exposition after filling ride %d lacks xar_index_rides 2 or xar_index_full_rides 1:\n%s", id, b.String())
	}
}
