package telemetry

import "time"

// JSON rendering of stored traces: the span tree served by
// GET /v1/traces[/{id}] and written into the debug bundle's
// traces_slowest.json and traces_errors.json.

// SpanDoc is one span in the rendered tree.
type SpanDoc struct {
	SpanID     string         `json:"span_id"`
	Name       string         `json:"name"`
	StartUnix  float64        `json:"start_unix"`
	DurationMS float64        `json:"duration_ms"`
	Error      string         `json:"error,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanDoc      `json:"children,omitempty"`
}

// TraceDoc is one rendered trace: summary fields plus the span tree.
type TraceDoc struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	StartUnix  float64   `json:"start_unix"`
	DurationMS float64   `json:"duration_ms"`
	Status     string    `json:"status"` // "ok" | "error"
	Error      string    `json:"error,omitempty"`
	SpanCount  int       `json:"span_count"`
	Dropped    int       `json:"dropped_spans,omitempty"`
	Tree       []SpanDoc `json:"tree"`
}

// Doc renders the trace as its JSON document, assembling the parent →
// children tree. Spans whose parent is unknown (a remote traceparent
// parent, or a parent dropped over the span cap) surface as additional
// roots rather than disappearing.
func (td *TraceData) Doc() TraceDoc {
	doc := TraceDoc{
		TraceID:    td.ID.String(),
		Root:       td.Root,
		StartUnix:  unixSeconds(td.Start),
		DurationMS: td.Duration.Seconds() * 1e3,
		Status:     "ok",
		Error:      td.Err,
		SpanCount:  len(td.Spans),
		Dropped:    td.Dropped,
	}
	if td.Errored() {
		doc.Status = "error"
	}

	known := make(map[SpanID]bool, len(td.Spans))
	for i := range td.Spans {
		known[td.Spans[i].ID] = true
	}
	children := make(map[SpanID][]int, len(td.Spans))
	var roots []int
	for i := range td.Spans {
		p := td.Spans[i].Parent
		if p.IsZero() || !known[p] {
			roots = append(roots, i)
			continue
		}
		children[p] = append(children[p], i)
	}
	var build func(i int) SpanDoc
	build = func(i int) SpanDoc {
		sd := &td.Spans[i]
		out := SpanDoc{
			SpanID:     sd.ID.String(),
			Name:       sd.Name,
			StartUnix:  unixSeconds(sd.Start),
			DurationMS: sd.Duration.Seconds() * 1e3,
			Error:      sd.Err,
		}
		if len(sd.Attrs) > 0 {
			out.Attrs = make(map[string]any, len(sd.Attrs))
			for _, a := range sd.Attrs {
				out.Attrs[a.Key] = a.Value()
			}
		}
		for _, c := range children[sd.ID] {
			out.Children = append(out.Children, build(c))
		}
		return out
	}
	for _, r := range roots {
		doc.Tree = append(doc.Tree, build(r))
	}
	return doc
}

func unixSeconds(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// Docs renders a trace list (List/Slowest output) into documents.
func Docs(tds []*TraceData) []TraceDoc {
	out := make([]TraceDoc, len(tds))
	for i, td := range tds {
		out[i] = td.Doc()
	}
	return out
}
