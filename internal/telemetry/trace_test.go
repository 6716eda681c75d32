package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned zero ID")
	}
	s := id.String()
	if len(s) != 32 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 32 lowercase hex digits", s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v; want original ID", s, back, ok)
	}
}

func TestParseTraceIDRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"abc",
		strings.Repeat("0", 32), // zero ID is invalid
		strings.Repeat("g", 32), // non-hex
		strings.Repeat("a", 31), // short
		strings.Repeat("a", 33), // long
		strings.ToUpper(NewTraceID().String())[:31] + "Z", // stray non-hex
	} {
		if _, ok := ParseTraceID(s); ok {
			t.Errorf("ParseTraceID(%q) accepted, want reject", s)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	trace := NewTraceID()
	span := newSpanID()
	for _, sampled := range []bool{true, false} {
		h := FormatTraceparent(trace, span, sampled)
		gotTrace, gotParent, gotSampled, ok := ParseTraceparent(h)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) rejected own output", h)
		}
		if gotTrace != trace || gotParent != span || gotSampled != sampled {
			t.Fatalf("round trip %q: got (%v,%v,%v), want (%v,%v,%v)",
				h, gotTrace, gotParent, gotSampled, trace, span, sampled)
		}
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := FormatTraceparent(NewTraceID(), newSpanID(), true)
	cases := map[string]string{
		"empty":        "",
		"short":        valid[:54],
		"bad dash 1":   valid[:2] + "x" + valid[3:],
		"bad dash 2":   valid[:35] + "x" + valid[36:],
		"bad dash 3":   valid[:52] + "x" + valid[53:],
		"version ff":   "ff" + valid[2:],
		"zero trace":   "00-" + strings.Repeat("0", 32) + valid[35:],
		"zero parent":  valid[:36] + strings.Repeat("0", 16) + valid[52:],
		"non-hex flag": valid[:53] + "zz",
	}
	for name, h := range cases {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want reject", name, h)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Per the W3C forward-compat rule, an unknown (non-ff) version whose
	// 00 layout still parses must be accepted.
	h := "cc" + FormatTraceparent(NewTraceID(), newSpanID(), true)[2:]
	if _, _, _, ok := ParseTraceparent(h); !ok {
		t.Fatalf("ParseTraceparent(%q) rejected future version", h)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetStr("k", "v")
	s.SetInt("k", 1)
	s.SetFloat("k", 1.5)
	s.SetError(context.Canceled)
	s.SetErrorMsg("boom")
	s.End()
	if !s.TraceID().IsZero() || !s.SpanID().IsZero() {
		t.Fatal("nil span must report zero IDs")
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartSpan(context.Background(), "book")
	if root == nil {
		t.Fatal("rate-1 tracer did not record root")
	}
	root.SetInt("conflict_retries", 2)

	cctx, attempt := ChildSpan(ctx, "book_attempt")
	attempt.SetInt("attempt", 1)
	_, path := ChildSpan(cctx, "path_search")
	path.SetFloat("dist", 42.5)
	path.End()
	attempt.End()
	root.End()

	td, ok := tr.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("finished trace not in store")
	}
	if td.Root != "book" || len(td.Spans) != 3 {
		t.Fatalf("trace root=%q spans=%d, want book/3", td.Root, len(td.Spans))
	}

	doc := td.Doc()
	if len(doc.Tree) != 1 || doc.Tree[0].Name != "book" {
		t.Fatalf("tree roots = %+v, want single book root", doc.Tree)
	}
	bk := doc.Tree[0]
	if bk.Attrs["conflict_retries"] != float64(2) {
		t.Fatalf("root attrs = %v", bk.Attrs)
	}
	if len(bk.Children) != 1 || bk.Children[0].Name != "book_attempt" {
		t.Fatalf("book children = %+v", bk.Children)
	}
	at := bk.Children[0]
	if len(at.Children) != 1 || at.Children[0].Name != "path_search" {
		t.Fatalf("attempt children = %+v", at.Children)
	}
	if at.Children[0].Attrs["dist"] != 42.5 {
		t.Fatalf("path attrs = %v", at.Children[0].Attrs)
	}
	if doc.Status != "ok" {
		t.Fatalf("status = %q, want ok", doc.Status)
	}
}

func TestHeadSampling(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRate: 4})
	recorded := 0
	const n = 64
	for i := 0; i < n; i++ {
		_, s := tr.StartSpan(context.Background(), "search")
		if s != nil {
			recorded++
			s.End()
		}
	}
	if recorded != n/4 {
		t.Fatalf("recorded %d of %d roots at rate 4, want %d", recorded, n, n/4)
	}
	if got := tr.Store().Len(); got != n/4 {
		t.Fatalf("store holds %d traces, want %d", got, n/4)
	}
}

func TestChildFollowsRootDecision(t *testing.T) {
	// Children of a recording root record regardless of the sampler; no
	// root in context means no children either.
	tr := NewTracer(TracerConfig{SampleRate: 1 << 20})
	ctx, root := tr.StartRoot(context.Background(), "search", TraceID{}, SpanID{})
	if root == nil {
		t.Fatal("StartRoot returned nil")
	}
	if _, child := ChildSpan(ctx, "side_lookup"); child == nil {
		t.Fatal("child of recording root must record")
	}
	if _, orphan := ChildSpan(context.Background(), "side_lookup"); orphan != nil {
		t.Fatal("child without a context span must be nil")
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Sample() {
		t.Fatal("nil tracer sampled")
	}
	ctx, s := tr.StartSpan(context.Background(), "search")
	if s != nil {
		t.Fatal("nil tracer returned recording span")
	}
	// But a nil tracer still continues traces begun upstream.
	live := NewTracer(TracerConfig{})
	ctx, root := live.StartSpan(context.Background(), "http")
	_, child := tr.StartSpan(ctx, "search")
	if child == nil {
		t.Fatal("nil tracer must continue an upstream trace")
	}
	child.End()
	root.End()
	if _, ok := live.Store().Get(root.TraceID()); !ok {
		t.Fatal("trace missing from upstream store")
	}
}

func TestErrorTraceKept(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 8})
	_, s := tr.StartSpan(context.Background(), "book")
	s.SetErrorMsg("ride not found")
	errID := s.TraceID()
	s.End()

	// Flood the normal ring far past capacity.
	for i := 0; i < 1024; i++ {
		_, f := tr.StartSpan(context.Background(), "search")
		f.End()
	}

	td, ok := tr.Store().Get(errID)
	if !ok {
		t.Fatal("error trace evicted by fast traffic; must be kept in the error ring")
	}
	if !td.Errored() || td.Err != "ride not found" {
		t.Fatalf("error trace = %+v", td)
	}
	if got := tr.Store().List(TraceFilter{Status: "error"}); len(got) != 1 {
		t.Fatalf("List(error) = %d traces, want 1", len(got))
	}
}

func TestSlowTraceKept(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 8, SlowThreshold: time.Nanosecond})
	_, s := tr.StartSpan(context.Background(), "search")
	time.Sleep(time.Millisecond)
	slowID := s.TraceID()
	s.End()

	td, ok := tr.Store().Get(slowID)
	if !ok {
		t.Fatal("slow trace not stored")
	}
	if td.Duration < time.Millisecond {
		t.Fatalf("slow trace duration = %v", td.Duration)
	}
	// min_ms-style filtering finds it.
	if got := tr.Store().List(TraceFilter{Op: "search", MinDuration: time.Millisecond}); len(got) != 1 {
		t.Fatalf("List(search, 1ms) = %d traces, want 1", len(got))
	}
}

func TestListOpMatchesContainedSpan(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartSpan(context.Background(), "/v1/search")
	_, child := ChildSpan(ctx, "search")
	child.End()
	root.End()

	if got := tr.Store().List(TraceFilter{Op: "search"}); len(got) != 1 {
		t.Fatalf("op=search must match the engine span under an HTTP root; got %d", len(got))
	}
	if got := tr.Store().List(TraceFilter{Op: "book"}); len(got) != 0 {
		t.Fatalf("op=book matched %d traces, want 0", len(got))
	}
}

func TestSlowestOrdering(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond} {
		_, s := tr.StartSpan(context.Background(), "search")
		time.Sleep(d)
		s.End()
	}
	got := tr.Store().Slowest(2)
	if len(got) != 2 {
		t.Fatalf("Slowest(2) = %d traces", len(got))
	}
	if got[0].Duration < got[1].Duration {
		t.Fatalf("Slowest not ordered: %v then %v", got[0].Duration, got[1].Duration)
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 4})
	var first TraceID
	for i := 0; i < 8; i++ {
		_, s := tr.StartSpan(context.Background(), "search")
		if i == 0 {
			first = s.TraceID()
		}
		s.End()
	}
	if _, ok := tr.Store().Get(first); ok {
		t.Fatal("oldest trace should be overwritten in a full ring")
	}
	if got := tr.Store().Len(); got != 4 {
		t.Fatalf("store len = %d, want capacity 4", got)
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartSpan(context.Background(), "track_all")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, c := ChildSpan(ctx, "track")
		c.End()
	}
	root.End()
	td, ok := tr.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("capped trace not stored")
	}
	if len(td.Spans) != maxSpansPerTrace {
		t.Fatalf("spans = %d, want cap %d", len(td.Spans), maxSpansPerTrace)
	}
	if td.Dropped != 11 { // 10 extra children + the root itself over cap
		t.Fatalf("dropped = %d, want 11", td.Dropped)
	}
}

func TestConcurrentSpanEnds(t *testing.T) {
	// Children of one span may end on other goroutines.
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartSpan(context.Background(), "search")
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := ChildSpan(ctx, "worker")
			s.SetInt("worker", int64(i))
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	td, ok := tr.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	if len(td.Spans) != workers+1 {
		t.Fatalf("spans = %d, want %d", len(td.Spans), workers+1)
	}
	doc := td.Doc()
	if len(doc.Tree) != 1 || len(doc.Tree[0].Children) != workers {
		t.Fatalf("tree = %d roots, %d children", len(doc.Tree), len(doc.Tree[0].Children))
	}
}

func TestRemoteParentSurfacesAsRoot(t *testing.T) {
	// An HTTP root continuing a remote traceparent has a non-zero parent
	// that is not among the stored spans; the doc must still render it.
	tr := NewTracer(TracerConfig{})
	remote := newSpanID()
	_, root := tr.StartRoot(context.Background(), "/v1/search", NewTraceID(), remote)
	root.End()
	td, _ := tr.Store().Get(root.TraceID())
	doc := td.Doc()
	if len(doc.Tree) != 1 || doc.Tree[0].Name != "/v1/search" {
		t.Fatalf("remote-parent root missing from tree: %+v", doc.Tree)
	}
}

func TestLateChildDropped(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartSpan(context.Background(), "search")
	_, straggler := ChildSpan(ctx, "late")
	root.End()
	straggler.End() // after seal: must not corrupt the stored trace
	td, _ := tr.Store().Get(root.TraceID())
	if td.HasSpan("late") {
		t.Fatal("span ended after root seal must be dropped")
	}
}
