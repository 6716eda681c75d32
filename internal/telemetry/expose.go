package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # HELP / # TYPE header per family, then
// each series; histograms expand into cumulative _bucket{le=…} series
// plus _sum and _count, exactly as a scraper expects.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runScrapeHooks()
	var b strings.Builder
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.snapshotSeries() {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels), formatValue(float64(s.counter.Value())))
			case KindGauge:
				v := 0.0
				if s.gaugeFn != nil {
					v = s.gaugeFn()
				} else if s.gauge != nil {
					v = s.gauge.Value()
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels), formatValue(v))
			case KindHistogram:
				writeHistogram(&b, f.name, s.labels, s.hist)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, labels Labels, h *Histogram) {
	counts := h.BucketCounts()
	bounds := h.Bounds()
	exemplars := h.Exemplars()
	cum := uint64(0)
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d%s\n", name, renderLabels(append(labels.clone(), Label{"le", formatValue(bound)})), cum, renderExemplar(exemplars[i]))
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(b, "%s_bucket%s %d%s\n", name, renderLabels(append(labels.clone(), Label{"le", "+Inf"})), cum, renderExemplar(exemplars[len(exemplars)-1]))
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(labels), formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(labels), h.Count())
}

// renderExemplar formats the OpenMetrics exemplar suffix for one bucket
// line: ` # {trace_id="…"} <value> <unix_ts>`. Empty when the slot has
// never been stamped. Prometheus ≥ 2.26 parses these on the classic text
// format; older scrapers ignore everything after the bucket value.
func renderExemplar(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(` # {trace_id="%s"} %s %s`,
		escapeLabelValue(e.TraceID), formatValue(e.Value), formatValue(e.Unix))
}

func (ls Labels) clone() Labels {
	out := make(Labels, len(ls), len(ls)+1)
	copy(out, ls)
	return out
}

func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip representation, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- JSON exposition ---

// SeriesJSON is one series in the JSON dump.
type SeriesJSON struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Histogram payload.
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"` // le → cumulative count
	P50     *float64          `json:"p50,omitempty"`
	P95     *float64          `json:"p95,omitempty"`
	P99     *float64          `json:"p99,omitempty"`
}

// FamilyJSON is one metric family in the JSON dump.
type FamilyJSON struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Type   string       `json:"type"`
	Series []SeriesJSON `json:"series"`
}

// Snapshot returns the registry contents as renderable structs — the
// JSON twin of WritePrometheus, also used by the /v1/metrics/json
// endpoint and by xarbench's telemetry dump.
func (r *Registry) Snapshot() []FamilyJSON {
	r.runScrapeHooks()
	fams := r.snapshotFamilies()
	out := make([]FamilyJSON, 0, len(fams))
	for _, f := range fams {
		fj := FamilyJSON{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, s := range f.snapshotSeries() {
			sj := SeriesJSON{}
			if len(s.labels) > 0 {
				sj.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					sj.Labels[l.Name] = l.Value
				}
			}
			switch f.kind {
			case KindCounter:
				v := float64(s.counter.Value())
				sj.Value = &v
			case KindGauge:
				v := 0.0
				if s.gaugeFn != nil {
					v = s.gaugeFn()
				} else if s.gauge != nil {
					v = s.gauge.Value()
				}
				sj.Value = &v
			case KindHistogram:
				h := s.hist
				count := h.Count()
				sum := h.Sum()
				sj.Count = &count
				sj.Sum = &sum
				counts := h.BucketCounts()
				bounds := h.Bounds()
				sj.Buckets = make(map[string]uint64, len(counts))
				cum := uint64(0)
				for i, bound := range bounds {
					cum += counts[i]
					sj.Buckets[formatValue(bound)] = cum
				}
				cum += counts[len(counts)-1]
				sj.Buckets["+Inf"] = cum
				if count > 0 {
					p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
					sj.P50, sj.P95, sj.P99 = &p50, &p95, &p99
				}
			}
			fj.Series = append(fj.Series, sj)
		}
		out = append(out, fj)
	}
	return out
}

// WriteJSON renders the registry as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
