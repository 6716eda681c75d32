package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans are recorded only by this package,
// around its calls into a layer's public functions: trace is the index
// of the work unit in the fixed op list, parent the span that caused
// this one (0 for a root), n an optional count the call returned
// (matches of a search).
type span struct {
	Trace  int32  `json:"trace"`
	Span   int32  `json:"span"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int32  `json:"n,omitempty"`
}

// recorder keeps spans in one preallocated slice; ids are slots claimed
// with an atomic counter, so client workers and the wrapped handler's
// goroutines record without a lock. A nil recorder is the untraced pass.
type recorder struct {
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, capacity)}
}

// reserve claims a span id before the interval starts, so children can
// name their parent. It returns 0 when the slice is full.
func (r *recorder) reserve() int32 {
	id := r.next.Add(1)
	if int(id) > len(r.spans) {
		r.dropped.Add(1)
		return 0
	}
	return int32(id)
}

func (r *recorder) fill(id, trace, parent int32, name string, start, end int64, n int) {
	if id == 0 {
		return
	}
	r.spans[id-1] = span{Trace: trace, Span: id, Parent: parent, Name: name, Start: start, End: end, N: int32(n)}
}

// add records a finished interval in one step.
func (r *recorder) add(trace, parent int32, name string, start, end int64, n int) {
	r.fill(r.reserve(), trace, parent, name, start, end, n)
}

func (r *recorder) recorded() []span {
	n := int(r.next.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// ledger is what the per-layer metrics are derived from: for each span
// name the durations, the self times (duration minus the direct
// children's durations) and the n attributes, in recording order.
type ledger struct {
	dur  map[string][]int64
	self map[string][]int64
	n    map[string][]int32
}

func buildLedger(spans []span) *ledger {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Span != 0 && s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	l := &ledger{dur: map[string][]int64{}, self: map[string][]int64{}, n: map[string][]int32{}}
	for _, s := range spans {
		if s.Span == 0 {
			continue
		}
		d := s.End - s.Start
		l.dur[s.Name] = append(l.dur[s.Name], d)
		l.self[s.Name] = append(l.self[s.Name], d-child[s.Span])
		l.n[s.Name] = append(l.n[s.Name], s.N)
	}
	return l
}

func (l *ledger) busySeconds(name string) float64 {
	var t int64
	for _, d := range l.dur[name] {
		t += d
	}
	return float64(t) / 1e9
}

func (l *ledger) calls(name string) int { return len(l.dur[name]) }

// quantileUS is the q-quantile of the named span's durations in µs.
func (l *ledger) quantileUS(name string, q float64) float64 {
	return quantile(append([]int64(nil), l.dur[name]...), q) / 1e3
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if spans[i].Span == 0 {
			continue
		}
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// clock is the one time source of the harness: nanoseconds since the
// process-wide epoch, on the monotonic clock.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }
