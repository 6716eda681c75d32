package server

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"xar/internal/telemetry"
)

// Metric-name hygiene lint: every family a fully wired process registers
// (engine ops, HTTP middleware, runtime metrics) must follow the
// conventions OBSERVABILITY.md documents — names under the xar_/go_
// prefixes, counters ending _total, histograms carrying a unit suffix,
// and no duplicate registrations. New metrics that break the scheme fail
// CI here instead of surfacing as unqueryable series in dashboards.

var metricNameRE = regexp.MustCompile(`^(xar|go)_[a-z][a-z0-9_]*$`)

func TestMetricNameHygiene(t *testing.T) {
	env := newTracedEnv(t)
	telemetry.RegisterRuntimeMetrics(env.reg)

	// Materialize lazily registered families: a full create/search/book
	// cycle through HTTP plus a failed booking for the error counters, and
	// an audit sweep for the sweep counter (the journal and violation
	// families register eagerly).
	body := env.searchBody(t)
	if resp := env.doRaw(t, "POST", "/v1/search", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d", resp.StatusCode)
	}
	env.doRaw(t, "POST", "/v1/bookings", `{"ride_id": 999999}`, nil)
	env.auditor.Audit()
	// One capture and one memory sweep so the xar_profile_* and
	// xar_memsize_* families materialize.
	env.prof.CaptureNow()
	env.eng.MemSweep()

	resp := env.doRaw(t, "GET", "/v1/metrics/prom", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	kinds := map[string]string{} // family name -> counter|gauge|histogram
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			t.Errorf("malformed TYPE line: %q", line)
			continue
		}
		name, kind := fields[2], fields[3]
		if _, dup := kinds[name]; dup {
			t.Errorf("metric %s: duplicate TYPE line (family rendered twice)", name)
		}
		kinds[name] = kind
	}
	if len(kinds) < 8 {
		t.Fatalf("only %d families in the exposition — wiring broke: %v", len(kinds), kinds)
	}

	for name, kind := range kinds {
		if !metricNameRE.MatchString(name) {
			t.Errorf("metric %s: name must match %s", name, metricNameRE)
		}
		switch kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("metric %s: counters must end _total", name)
			}
		case "gauge":
			if strings.HasSuffix(name, "_total") {
				t.Errorf("metric %s: _total suffix is reserved for counters", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") && !strings.HasSuffix(name, "_ratio") {
				t.Errorf("metric %s: histograms must carry a unit suffix (_seconds, _bytes, or _ratio)", name)
			}
		default:
			t.Errorf("metric %s: unknown kind %q", name, kind)
		}
	}

	// The core serving families must be present — if one vanishes the
	// lint would silently shrink to whatever is left.
	for _, want := range []string{
		"xar_op_duration_seconds",
		"xar_op_errors_total",
		"xar_http_requests_total",
		"xar_http_request_duration_seconds",
		"xar_ride_events_total",
		"xar_audit_violations_total",
		"xar_audit_sweeps_total",
		"xar_search_funnel_total",
		"xar_detour_slack_ratio",
		"xar_epsilon_consumption_ratio",
		"xar_shadow_unlock_total",
		"xar_shadow_tasks_total",
		"xar_build_info",
		"xar_match_rate",
		"xar_index_rides",
		"xar_index_full_rides",
		"xar_memsize_bytes",
		"xar_rides_per_gb",
		"xar_memsize_sweep_duration_seconds",
		"xar_profile_capture_duration_seconds",
		"xar_profile_overhead_ratio",
		"go_goroutines",
		"go_gc_pauses_seconds",
	} {
		if _, ok := kinds[want]; !ok {
			t.Errorf("expected family %s missing from exposition", want)
		}
	}
}
