package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// Exposition-format edge cases: label-value and HELP escaping. Each
// test round-trips the rendered text through a
// small line-format parser rather than string-matching the writer's own
// output, so an escaping bug cannot cancel itself out.

// parsedLine is one metric line as a scraper would see it.
type parsedLine struct {
	name   string
	labels map[string]string
	value  float64
}

// parseMetricLine parses `name{k="v",…} value [timestamp]`, the sample
// line of text format 0.0.4, unescaping label values (\\, \", \n). The
// timestamp is an integer (milliseconds since the epoch); anything else
// after the value fails the line, as it fails a 0.0.4 scraper's whole
// scrape.
func parseMetricLine(t *testing.T, line string) parsedLine {
	t.Helper()
	p := parsedLine{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		p.name = rest[:i]
		var ok bool
		p.labels, rest, ok = parseLabelSet(rest[i:])
		if !ok {
			t.Fatalf("bad label set in line %q", line)
		}
	} else {
		j := strings.IndexByte(rest, ' ')
		if j < 0 {
			t.Fatalf("no value in line %q", line)
		}
		p.name, rest = rest[:j], rest[j:]
	}
	rest = strings.TrimLeft(rest, " ")
	valStr, rest, _ := strings.Cut(rest, " ")
	v, err := parseValue(valStr)
	if err != nil {
		t.Fatalf("bad value %q in line %q: %v", valStr, line, err)
	}
	p.value = v
	rest = strings.TrimLeft(rest, " ")
	if rest == "" {
		return p
	}
	if _, err := strconv.ParseInt(rest, 10, 64); err != nil {
		t.Fatalf("text after the value is not an integer timestamp: %q in line %q", rest, line)
	}
	return p
}

// CheckSampleLine fails t unless line is a valid 0.0.4 sample line; the
// external tests (package telemetry_test) reach parseMetricLine through
// it.
func CheckSampleLine(t *testing.T, line string) { parseMetricLine(t, line) }

// parseLabelSet consumes a `{k="v",…}` block, returning the unescaped
// labels and the remainder of the line.
func parseLabelSet(s string) (map[string]string, string, bool) {
	if len(s) == 0 || s[0] != '{' {
		return nil, s, false
	}
	out := map[string]string{}
	i := 1
	for {
		if i < len(s) && s[i] == '}' {
			return out, s[i+1:], true
		}
		j := strings.Index(s[i:], `="`)
		if j < 0 {
			return nil, s, false
		}
		name := s[i : i+j]
		i += j + 2
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, s, false
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, s, false
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, s, false
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		out[name] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// findLine returns the first non-comment line whose name and label
// subset match.
func findLine(t *testing.T, text, name string, want map[string]string) parsedLine {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name) {
			continue
		}
		p := parseMetricLine(t, line)
		if p.name != name {
			continue
		}
		match := true
		for k, v := range want {
			if p.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return p
		}
	}
	t.Fatalf("no line %s%v in exposition:\n%s", name, want, text)
	return parsedLine{}
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestLabelValueEscapingRoundTrip(t *testing.T) {
	hostile := []string{
		`plain`,
		`has "quotes"`,
		`back\slash`,
		"new\nline",
		`all three: \ " ` + "\n" + ` done`,
		`trailing backslash \`,
	}
	r := NewRegistry()
	for i, v := range hostile {
		r.Counter("xar_escape_test_total", "escape test", L("v", v)).Add(uint64(i + 1))
	}
	text := render(t, r)
	for i, v := range hostile {
		p := findLine(t, text, "xar_escape_test_total", map[string]string{"v": v})
		if p.value != float64(i+1) {
			t.Errorf("label %q: value %g, want %d", v, p.value, i+1)
		}
	}
	// Raw newlines must never survive into the body of any line.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "\r") {
			t.Fatalf("carriage return leaked into %q", line)
		}
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("xar_help_test_total", "line one\nline two \\ with backslash", nil).Inc()
	text := render(t, r)
	want := `# HELP xar_help_test_total line one\nline two \\ with backslash`
	if !strings.Contains(text, want+"\n") {
		t.Fatalf("HELP not escaped; exposition:\n%s", text)
	}
	if strings.Count(text, "\n") != strings.Count(strings.TrimRight(text, "\n"), "\n")+1 {
		t.Fatal("unbalanced newlines")
	}
}
