package telemetry

import (
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
	cum := uint64(0)
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(append(labels.clone(), Label{"le", formatValue(bound)})), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(append(labels.clone(), Label{"le", "+Inf"})), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(labels), formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(labels), h.Count())
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
