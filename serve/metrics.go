package serve

import (
	"fmt"
	"io"
	"net/http"

	"floatprint"
	"floatprint/internal/stats"
)

// routes is the fixed conversion-route set.  Per-route metrics and
// request-span names key off it; the set is closed at build time, so
// the label cardinality of every fpserved_* family is known and an
// aggregating scraper can pre-size its series.
var routes = []string{
	"/v1/shortest",
	"/v1/parse",
	"/v1/interval",
	"/v1/fixed",
	"/v1/batch",
	"/v1/batch-parse",
}

// latencyBounds is the request-latency bucket layout, shared by every
// route so per-route histograms aggregate cleanly across a fleet.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// routeMetrics is one route's RED triple: request rate (requests),
// errors (by status class), and duration (the latency histogram).
// "Which endpoint is slow, and how often does it fail" is answerable
// per route instead of per process.
type routeMetrics struct {
	requests stats.Raw // arrivals, sheds included
	err4xx   stats.Raw
	err5xx   stats.Raw
	latency  *stats.Histogram
}

// metrics is the server-side counter set, built on the same
// primitives as the library's conversion telemetry (internal/stats)
// so both halves of a /metrics scrape come off one pipeline.  Unlike
// the library's gated path-mix counters, these are Raw — request
// accounting is always on.
type metrics struct {
	sheds    stats.Raw // arrivals rejected 429 at the in-flight cap
	panics   stats.Raw // handler panics converted to 500s
	bytesOut stats.Raw // response bytes written by conversion endpoints
	code2xx  stats.Raw
	code4xx  stats.Raw
	code5xx  stats.Raw
	byRoute  map[string]*routeMetrics
}

func newMetrics() *metrics {
	m := &metrics{byRoute: make(map[string]*routeMetrics, len(routes))}
	for _, r := range routes {
		m.byRoute[r] = &routeMetrics{latency: stats.NewHistogram(latencyBounds...)}
	}
	return m
}

// route returns a route's metric set.  The map is fixed after
// newMetrics, so concurrent lookups are safe; an unknown route is a
// programming error caught at wiring time, not a runtime fallback.
func (m *metrics) route(r string) *routeMetrics {
	rm, ok := m.byRoute[r]
	if !ok {
		panic("serve: unregistered route " + r)
	}
	return rm
}

// observe folds one finished request into the RED set: latency into
// the route histogram, status into the route error counters and the
// process-wide class counters, bytes into the output total.
func (m *metrics) observe(rm *routeMetrics, status int, seconds float64, bytes int64) {
	m.bytesOut.Add(uint64(bytes))
	rm.latency.Observe(seconds)
	switch {
	case status >= 500:
		m.code5xx.Inc()
		rm.err5xx.Inc()
	case status >= 400:
		m.code4xx.Inc()
		rm.err4xx.Inc()
	default:
		m.code2xx.Inc()
	}
}

// writePrometheus emits the server metrics: the per-route RED
// families first, then the process-wide counters and gauges.  Every
// labeled family is declared once and emits one sample per route (and
// per class), in the fixed route order, so the exposition is
// deterministic and golden-testable.
func (m *metrics) writePrometheus(w io.Writer, inFlight, limit int) error {
	if err := stats.WriteMetricHead(w, "fpserved_requests_total", "counter",
		"Requests received, by route, sheds included."); err != nil {
		return err
	}
	for _, r := range routes {
		if err := stats.WriteSample(w, "fpserved_requests_total",
			fmt.Sprintf("route=%q", r), m.byRoute[r].requests.Load()); err != nil {
			return err
		}
	}
	if err := stats.WriteMetricHead(w, "fpserved_request_errors_total", "counter",
		"Error responses, by route and status class."); err != nil {
		return err
	}
	for _, r := range routes {
		rm := m.byRoute[r]
		for _, c := range []struct {
			class string
			v     uint64
		}{{"4xx", rm.err4xx.Load()}, {"5xx", rm.err5xx.Load()}} {
			if err := stats.WriteSample(w, "fpserved_request_errors_total",
				fmt.Sprintf("route=%q,class=%q", r, c.class), c.v); err != nil {
				return err
			}
		}
	}
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"fpserved_shed_total", "Requests shed with 429 at the in-flight cap.", m.sheds.Load()},
		{"fpserved_panics_total", "Handler panics recovered into 500s.", m.panics.Load()},
		{"fpserved_response_bytes_total", "Response bytes written by conversion endpoints.", m.bytesOut.Load()},
	} {
		if err := stats.WriteCounter(w, c.name, c.help, c.v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w,
		"# HELP fpserved_responses_total Responses by status class.\n"+
			"# TYPE fpserved_responses_total counter\n"+
			"fpserved_responses_total{class=\"2xx\"} %d\n"+
			"fpserved_responses_total{class=\"4xx\"} %d\n"+
			"fpserved_responses_total{class=\"5xx\"} %d\n",
		m.code2xx.Load(), m.code4xx.Load(), m.code5xx.Load()); err != nil {
		return err
	}
	if err := stats.WriteGauge(w, "fpserved_in_flight",
		"Conversion requests currently admitted.", int64(inFlight)); err != nil {
		return err
	}
	if err := stats.WriteGauge(w, "fpserved_in_flight_limit",
		"Admission cap; arrivals past it are shed.", int64(limit)); err != nil {
		return err
	}
	if err := stats.WriteMetricHead(w, "fpserved_request_seconds", "histogram",
		"Request latency by route, sheds included."); err != nil {
		return err
	}
	for _, r := range routes {
		if err := m.byRoute[r].latency.WriteBuckets(w, "fpserved_request_seconds",
			fmt.Sprintf("route=%q", r)); err != nil {
			return err
		}
	}
	return nil
}

// handleMetrics serves the combined exposition: the library's
// conversion counters (floatprint.Snapshot — Ryū/Gay/exact mix, batch
// value and byte totals, the exact core's estimator and digit-loop
// events), the server's per-route RED metrics, and the runtime
// collector.  It bypasses the limiter: observability must survive the
// very overload it is there to explain.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := floatprint.Snapshot().WritePrometheus(w); err != nil {
		return
	}
	if err := s.metrics.writePrometheus(w, s.limiter.inFlight(), s.limiter.limit()); err != nil {
		return
	}
	s.runtime.writePrometheus(w)
}
