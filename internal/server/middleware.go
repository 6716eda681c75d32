package server

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"xar/internal/telemetry"
)

// HTTP metric names exposed by the serving layer.
const (
	httpRequestsName  = "xar_http_requests_total"
	httpDurationName  = "xar_http_request_duration_seconds"
	httpInflightName  = "xar_http_inflight_requests"
	httpRespBytesName = "xar_http_response_bytes_total"
)

// routeInstruments is the pre-built instrument set of one route: the
// middleware does zero registry lookups per request.
type routeInstruments struct {
	duration *telemetry.Histogram
	byClass  [4]*telemetry.Counter // 2xx, 3xx, 4xx, 5xx
	bytes    *telemetry.Counter
}

func (s *Server) newRouteInstruments(route string) *routeInstruments {
	ri := &routeInstruments{
		duration: s.reg.Histogram(httpDurationName,
			"HTTP request latency by route.",
			telemetry.DurationBuckets(), telemetry.L("route", route)),
		bytes: s.reg.Counter(httpRespBytesName,
			"Response body bytes written by route.", telemetry.L("route", route)),
	}
	for i, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		ri.byClass[i] = s.reg.Counter(httpRequestsName,
			"HTTP requests by route and status class.",
			telemetry.L("route", route, "code", class))
	}
	return ri
}

// statusWriter captures the response status and size. WriteHeader-less
// handlers default to 200, matching net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	wrote  bool // the status line has gone out
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.wrote = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// serveRecovering runs next and turns a panic into a 500: the uniform
// JSON error body when nothing was written yet, and the value and stack
// logged as net/http would log them. It returns the panic value (nil
// when next returned), so the middleware still closes its books on the
// request — net/http alone would drop the connection and leave the
// in-flight gauge, the 5xx count and the root span behind.
func serveRecovering(next http.HandlerFunc, w *statusWriter, r *http.Request) (panicked any) {
	defer func() {
		if panicked = recover(); panicked == nil {
			return
		}
		log.Printf("http: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, panicked, debug.Stack())
		if !w.wrote {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "internal server error"})
		}
		w.status = http.StatusInternalServerError
	}()
	next(w, r)
	return nil
}

// instrument wraps a handler with the serving-side telemetry: in-flight
// gauge, per-route latency histogram, status-class counters, response
// bytes, request-scoped tracing, and the optional structured access log.
// A handler that panics is answered with a 500 and recorded like any
// other failed request (serveRecovering).
//
// Trace semantics: every request gets a trace ID — taken from a valid
// incoming W3C traceparent, minted otherwise — and the ID is echoed in
// the X-Xar-Trace-Id response header and the access-log line whether or
// not the trace records. A root span (which makes the trace land in the
// store and flow into the engine's child spans) opens when a tracer is
// configured and either the incoming traceparent carries the sampled
// flag or the tracer's own head sampler selects the request.
func (s *Server) instrument(route string, next http.HandlerFunc) http.Handler {
	ri := s.newRouteInstruments(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		start := time.Now()

		trace, parent, sampled, fromUpstream := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
		if !fromUpstream {
			trace = telemetry.NewTraceID()
		}
		var span *telemetry.Span
		if s.tracer != nil && ((fromUpstream && sampled) || s.tracer.Sample()) {
			var ctx context.Context
			ctx, span = s.tracer.StartRoot(r.Context(), route, trace, parent)
			r = r.WithContext(ctx)
		}
		w.Header().Set("X-Xar-Trace-Id", trace.String())

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		panicked := serveRecovering(next, sw, r)
		d := time.Since(start)
		s.inflight.Add(-1)

		if span != nil {
			span.SetStr("method", r.Method)
			span.SetStr("path", r.URL.Path)
			span.SetInt("status", int64(sw.status))
			span.SetInt("bytes", int64(sw.bytes))
			if panicked != nil {
				span.SetErrorMsg(fmt.Sprintf("panic: %v", panicked))
			} else if sw.status >= 500 {
				span.SetErrorMsg(http.StatusText(sw.status))
			}
			span.End()
		}

		ri.duration.ObserveDuration(d)
		if class := sw.status/100 - 2; class >= 0 && class < len(ri.byClass) {
			ri.byClass[class].Inc()
		}
		ri.bytes.Add(uint64(sw.bytes))

		if s.accessLog != nil {
			s.accessLog.LogAttrs(r.Context(), slog.LevelInfo, "http",
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Float64("duration_ms", float64(d)/float64(time.Millisecond)),
				slog.Int("bytes", sw.bytes),
				slog.String("remote", r.RemoteAddr),
				slog.String("trace_id", trace.String()),
			)
		}
	})
}

// handleMetricsProm serves the whole registry in Prometheus text
// exposition format — engine op/stage histograms, HTTP serving metrics
// and any runtime gauges wired by the binary.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}
