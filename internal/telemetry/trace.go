package telemetry

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. The aggregate histograms answer "how slow is
// the p99"; the trace layer answers "why was THIS request slow": every
// sampled operation records a tree of spans — the HTTP request, the
// engine operation under it, a search's side lookup, each
// optimistic-book attempt, each pooled A*/ALT path call — keyed by a
// 128-bit W3C trace ID that also appears in the access log and the
// slow-op log, so logs and traces cross-link on one identifier (a
// metric's histogram bucket reaches its traces by op and duration).
//
// Cost model, matching the metrics layer's constraints:
//
//   - Tracing disabled (nil *Tracer, no span in context): every
//     instrumentation point is a nil check. No allocation, no atomics.
//   - Head-sampled: the 1-in-N decision is one atomic increment and a
//     mask test per root; unsampled requests allocate nothing.
//   - Sampled: spans allocate (they must outlive the operation), but a
//     finished trace is a single slice of value-type SpanData records —
//     no per-span goroutines, channels or maps.
//
// Spans within one trace may end concurrently (a batch's searches
// under one request root): each End stamps only the span's own record, lock-free, and
// the root's End performs the single batched copy into the store.

// TraceID is a 128-bit W3C trace identifier (non-zero when valid).
type TraceID [16]byte

// SpanID is a 64-bit span identifier within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits (W3C traceparent
// encoding).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random, non-zero trace ID. The generator is the
// runtime-seeded math/rand/v2 global: trace IDs need uniqueness, not
// unpredictability, and the lock-free generator keeps ID minting off the
// hot path's contention profile.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		hi, lo := rand.Uint64(), rand.Uint64()
		byteOrder(t[0:8], hi)
		byteOrder(t[8:16], lo)
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		byteOrder(s[:], rand.Uint64())
	}
	return s
}

func byteOrder(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (56 - 8*i))
	}
}

// ParseTraceID parses 32 hex digits into a TraceID.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// ParseTraceparent parses a W3C traceparent header
// (00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>). ok is false
// for anything malformed; future versions (non-00) are accepted if the
// 00 field layout parses, per the spec's forward-compat rule.
func ParseTraceparent(h string) (trace TraceID, parent SpanID, sampled, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	if h[0] == 'f' && h[1] == 'f' {
		return TraceID{}, SpanID{}, false, false // version 0xff is forbidden
	}
	trace, tok := ParseTraceID(h[3:35])
	if !tok {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	return trace, parent, flags[0]&0x01 != 0, true
}

// FormatTraceparent renders a version-00 traceparent header.
func FormatTraceparent(trace TraceID, span SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + trace.String() + "-" + span.String() + "-" + flags
}

// --- attributes ---

// Attr is one key/value annotation on a span: either a string or a
// number (a two-field union rather than `any` so setting an int does not
// box-allocate).
type Attr struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// Value returns the attribute's dynamic value (for JSON rendering).
func (a Attr) Value() any {
	if a.IsNum {
		return a.Num
	}
	return a.Str
}

// --- spans ---

// Span is one timed operation inside a trace. A nil *Span is the
// non-recording span: every method is a no-op, so instrumentation sites
// never branch on "is tracing on".
//
// A span is owned by the goroutine that started it until End; attributes
// must be set by that owner. Different spans of one trace may be owned
// by different goroutines (a search batch) — the shared trace record
// is locked only inside End.
//
// A span must not be touched after its trace's root has ended: sealing
// recycles the trace record (and the arena slots its spans live in)
// through a pool, so a straggler's writes could land in a later trace.
// TraceID and SpanID stay valid on the span itself until the next trace
// reuses its slot — reading them right after End is fine; holding a
// span across new traces is not.
type Span struct {
	rec    *traceRec
	trace  TraceID
	gen    uint32
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
	dur    time.Duration
	done   bool
	attrs  []Attr
	errMsg string
	// attrBuf backs attrs for the common ≤4-attribute span, so Set*
	// never touches the allocator on the hot path; wider spans spill to
	// a heap slice on the fifth append.
	attrBuf [4]Attr
}

// TraceID returns the owning trace's ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// SpanID returns the span's ID (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// grow readies the attrs slice for one more entry, pointing it at the
// span's inline buffer on first use.
func (s *Span) grow() {
	if s.attrs == nil {
		s.attrs = s.attrBuf[:0]
	}
}

// SetStr sets a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.grow()
	s.attrs = append(s.attrs, Attr{Key: key, Str: v})
}

// SetInt sets an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.grow()
	s.attrs = append(s.attrs, Attr{Key: key, Num: float64(v), IsNum: true})
}

// SetFloat sets a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.grow()
	s.attrs = append(s.attrs, Attr{Key: key, Num: v, IsNum: true})
}

// StartTime returns the span's start instant (zero for a nil span) —
// instrumentation that already pays for the span's clock reads can reuse
// it as a stage mark instead of calling time.Now again.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// SetError marks the span failed with err's message. A nil err is a
// no-op, so `span.SetError(err)` can sit unconditionally on the return
// path.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// SetErrorMsg marks the span failed with an explicit message.
func (s *Span) SetErrorMsg(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.errMsg = msg
}

// End finishes the span: a lock-free stamp of its duration. Ending the
// trace's root span seals the trace — every finished span is copied out
// and the trace handed to the store; spans not yet ended at that point
// are excluded (structured usage always ends children first).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.finish(s, time.Now())
}

// EndAt is End with a caller-supplied end instant, for instrumentation
// that already read the clock (a stage boundary doubling as the span
// end). now must come from time.Now on the ending goroutine.
func (s *Span) EndAt(now time.Time) {
	if s == nil {
		return
	}
	s.rec.finish(s, now)
}

// Duration of a finished span is carried in its SpanData; live spans
// don't expose elapsed time (nothing reads it).

// SpanData is the immutable record of a finished span.
type SpanData struct {
	ID       SpanID
	Parent   SpanID // zero for the root
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	Err      string
}

// TraceData is one finished trace: the root's identity plus every
// recorded span, as stored in (and served from) the ring buffer.
type TraceData struct {
	ID       TraceID
	Root     string // root span name — the trace's "operation"
	Start    time.Time
	Duration time.Duration
	Err      string // root (or first failing span's) error message
	Spans    []SpanData
	Dropped  int // spans discarded over the per-trace cap
}

// Errored reports whether any span of the trace failed.
func (td *TraceData) Errored() bool { return td.Err != "" }

// HasSpan reports whether any span (including the root) carries name.
func (td *TraceData) HasSpan(name string) bool {
	for i := range td.Spans {
		if td.Spans[i].Name == name {
			return true
		}
	}
	return false
}

// maxSpansPerTrace bounds one trace's memory: a pathological request
// (a TrackAll over a huge fleet under one span) cannot grow without
// limit. 512 spans cover a batch of searches plus a four-attempt
// booking with room to spare.
const maxSpansPerTrace = 512

// spanArenaSize is the per-trace block of preallocated spans: an HTTP
// root, the operation, four book attempts and their four path searches
// each fit without touching the allocator again; rarer, wider traces
// spill to individual allocations. The whole record (arena included) is recycled through
// the tracer's pool: sealing copies the spans and their attributes into
// right-sized slices for the store, so the stored trace retains nothing
// of the ~10 KB working block and the span hot path is allocation-free
// after warm-up.
const spanArenaSize = 24

// traceRec accumulates the spans of one in-flight trace. Recs are
// pooled per tracer; gen distinguishes incarnations so a straggling
// heap-spilled span from a recycled trace cannot land in a later one.
//
// The design keeps ending a child span lock-free and copy-free: End
// just stamps the span's own (exclusively owned) duration and done
// flag, and the root's End walks the arena once, batch-copying every
// finished span into right-sized SpanData/Attr slices for the store.
// Correct usage orders every child End before the root's (whoever hands
// children to other goroutines joins them first), which is exactly the happens-before edge
// the seal scan needs.
type traceRec struct {
	tracer    *Tracer
	id        TraceID
	gen       uint32
	root      *Span
	arenaNext atomic.Int32

	// mu guards the rare paths only: the spill list past the arena and
	// the seal flag. The common span lifecycle never touches it.
	mu      sync.Mutex
	spill   []*Span
	dropped int
	sealed  bool

	arena [spanArenaSize]Span
}

// newSpan hands out the next arena slot (reset from its previous
// incarnation), or heap-allocates past the arena, tracking the spilled
// span so the seal scan finds it (up to maxSpansPerTrace; beyond that
// the span still works but goes unrecorded). Lock-free on the arena
// path: spans opened concurrently claim slots atomically.
func (r *traceRec) newSpan() *Span {
	if n := int(r.arenaNext.Add(1)); n <= spanArenaSize {
		s := &r.arena[n-1]
		s.attrs = nil
		s.errMsg = ""
		s.done = false
		s.rec = r
		s.trace = r.id
		s.gen = r.gen
		return s
	}
	s := &Span{rec: r, trace: r.id, gen: r.gen}
	r.mu.Lock()
	if spanArenaSize+len(r.spill) >= maxSpansPerTrace {
		r.dropped++
	} else {
		r.spill = append(r.spill, s)
	}
	r.mu.Unlock()
	return s
}

func (r *traceRec) finish(s *Span, now time.Time) {
	if s.gen != r.gen {
		return // straggler from a recycled incarnation
	}
	s.dur = now.Sub(s.start)
	s.done = true
	if s == r.root {
		r.seal(s)
	}
}

// seal builds the immutable TraceData from every finished span, ships
// it to the store, and recycles the record. Spans never ended by seal
// time (invalid usage: a child outliving its root) are excluded.
func (r *traceRec) seal(root *Span) {
	r.mu.Lock()
	if r.sealed {
		r.mu.Unlock()
		return
	}
	r.sealed = true
	spill := r.spill
	dropped := r.dropped
	r.mu.Unlock()

	n := int(r.arenaNext.Load())
	if n > spanArenaSize {
		n = spanArenaSize
	}
	count, nattrs := 0, 0
	for i := 0; i < n; i++ {
		if s := &r.arena[i]; s.done {
			count++
			nattrs += len(s.attrs)
		}
	}
	for _, s := range spill {
		if s.done {
			count++
			nattrs += len(s.attrs)
		}
	}
	spans := make([]SpanData, 0, count)
	var flat []Attr // one backing array for every span's attrs
	if nattrs > 0 {
		flat = make([]Attr, 0, nattrs)
	}
	errMsg := ""
	add := func(s *Span) {
		if !s.done {
			return
		}
		attrs := s.attrs
		if len(attrs) > 0 {
			off := len(flat)
			flat = append(flat, attrs...)
			attrs = flat[off:len(flat):len(flat)]
		}
		spans = append(spans, SpanData{
			ID:       s.id,
			Parent:   s.parent,
			Name:     s.name,
			Start:    s.start,
			Duration: s.dur,
			Attrs:    attrs,
			Err:      s.errMsg,
		})
		if s.errMsg != "" && errMsg == "" {
			errMsg = s.errMsg
		}
	}
	for i := 0; i < n; i++ {
		add(&r.arena[i])
	}
	for _, s := range spill {
		add(s)
	}
	if root.errMsg != "" {
		errMsg = root.errMsg
	}
	td := &TraceData{
		ID:       r.id,
		Root:     root.name,
		Start:    root.start,
		Duration: root.dur,
		Err:      errMsg,
		Spans:    spans,
		Dropped:  dropped,
	}
	t := r.tracer
	t.store.Add(td, t.slow > 0 && td.Duration >= t.slow)
	// Recycle: drop retained references, the tracer's included (a pooled
	// rec must not keep a dropped tracer and its store alive), then back
	// to the pool. The rec stays sealed while pooled, so a straggler
	// ending now is harmless.
	r.spill = nil
	r.root = nil
	r.tracer = nil
	t.recs.Put(r)
}

// --- tracer ---

// TracerConfig tunes a Tracer. The zero value samples every root into a
// default-sized store — callers that want tracing OFF pass a nil
// *Tracer, not a zero config.
type TracerConfig struct {
	// SampleRate head-samples 1-in-N root spans (rounded up to a power
	// of two). 0 or 1 records every root; child spans always follow
	// their root's decision.
	SampleRate int
	// SlowThreshold routes traces at least this slow into the dedicated
	// always-keep slow ring, so a burst of fast traffic cannot evict the
	// outliers worth debugging. 0 disables the slow ring.
	SlowThreshold time.Duration
	// Capacity is the normal ring's capacity in traces
	// (0 → DefaultTraceCapacity). The slow and error rings each hold an
	// additional Capacity/4.
	Capacity int
}

// Tracer mints sampled root spans and owns the trace store. Safe for
// concurrent use. A nil *Tracer is valid: StartSpan degrades to
// child-only tracing (it still continues a trace begun upstream).
type Tracer struct {
	store *TraceStore
	mask  uint32
	seq   atomic.Uint32
	slow  time.Duration
	// recs recycles trace records (span arenas included) across traces;
	// see spanArenaSize for the lifecycle. The pool is its own
	// allocation: the runtime's pool registry keeps a used pool
	// reachable through the next collection, and a pool embedded here
	// would keep the dropped Tracer and its store alive with it.
	recs *sync.Pool
}

// NewTracer builds a tracer and its ring-buffer store.
func NewTracer(cfg TracerConfig) *Tracer {
	return &Tracer{
		store: NewTraceStore(cfg.Capacity),
		mask:  SampleMask(cfg.SampleRate),
		slow:  cfg.SlowThreshold,
		recs:  &sync.Pool{New: func() any { return new(traceRec) }},
	}
}

// SampleMask returns the mask of a 1-in-rate head sampler, the rate
// rounded up to a power of two: an event samples when its sequence
// number & mask == 0. Rates 0 and 1 sample every event.
func SampleMask(rate int) uint32 {
	mask := uint32(1)
	for int(mask) < rate {
		mask <<= 1
	}
	return mask - 1
}

// Store returns the tracer's ring-buffer trace store.
func (t *Tracer) Store() *TraceStore {
	if t == nil {
		return nil
	}
	return t.store
}

// SlowThreshold returns the always-keep slow cutoff (0 = disabled).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

// Sample advances the head-sampling sequence and reports whether this
// root should record. One atomic add + mask test.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	return t.seq.Add(1)&t.mask == 0
}

// StartSpan opens a span named name: a child of the context's span when
// one is recording (continuing that trace), else — when the tracer's
// head sampler selects this root — a new recording root. Returns the
// unchanged context and a nil span when not recording. Nil-safe: a nil
// tracer still creates child spans for traces begun upstream.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent := SpanFromContext(ctx); parent != nil {
		return ChildSpan(ctx, name)
	}
	if t == nil || !t.Sample() {
		return ctx, nil
	}
	return t.StartRoot(ctx, name, NewTraceID(), SpanID{})
}

// StartRoot unconditionally opens a recording root span with an explicit
// trace ID and (possibly zero) remote parent — the entry point for HTTP
// middleware after the traceparent sampling decision is made.
func (t *Tracer) StartRoot(ctx context.Context, name string, trace TraceID, parent SpanID) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if trace.IsZero() {
		trace = NewTraceID()
	}
	// Check a recycled record out of the pool and re-arm it. None of
	// these writes race: the rec is unshared until this root span is
	// handed out, and gen is bumped before any span of the new
	// incarnation exists.
	rec := t.recs.Get().(*traceRec)
	rec.tracer = t
	rec.id = trace
	rec.gen++
	rec.arenaNext.Store(0)
	rec.dropped = 0
	rec.sealed = false
	s := rec.newSpan()
	s.name = name
	s.id = newSpanID()
	s.parent = parent
	s.start = time.Now()
	rec.root = s
	return ContextWithSpan(ctx, s), s
}

// ChildSpan opens a child of the context's recording span, or returns
// (ctx, nil) when the context carries none — the universal
// instrumentation point for code below the root.
func ChildSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.Child(name)
	return ContextWithSpan(ctx, s), s
}

// Child opens a child span directly off s, nil-safe, without threading a
// context — the hot-path form for sites that hold the parent span and
// whose children spawn no spans of their own (a search's side lookup),
// which skips the context allocation and lookup.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.rec.newSpan()
	c.name = name
	c.id = newSpanID()
	c.parent = s.id
	c.start = time.Now()
	return c
}

// --- context plumbing ---

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the context's recording span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
