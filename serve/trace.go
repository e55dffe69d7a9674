package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"floatprint"
	"floatprint/internal/span"
)

// newTracer builds the request tracer from cfg, or nil when tracing is
// off (TraceSample <= 0).  A nil tracer short-circuits every
// instrumentation point to one pointer test — the tracing-disabled
// overhead budget in CI leans on this.
func newTracer(cfg Config) *span.Tracer {
	if cfg.TraceSample <= 0 {
		return nil
	}
	return span.New(span.Config{SampleEvery: cfg.TraceSample, Seed: cfg.TraceSeed})
}

// attachConversion copies the interesting parts of a per-conversion
// algorithm record onto the conversion span: the backend that produced
// the digits and the digit count as first-class attributes (the two
// facts trace queries filter on), and the full record as one compact
// algorithm= line.  This is the join point between the two telemetry
// layers — the request trace says where the time went, the algorithm
// record says which paper path ran and why.
func attachConversion(sp *span.Span, rec *floatprint.Trace) {
	if sp == nil || rec == nil {
		return
	}
	sp.SetAttr("backend", rec.Backend.String())
	sp.SetAttrInt("digits", int64(rec.Digits))
	sp.SetAttr("algorithm", rec.Summary())
}

// handleTraces serves GET /debug/traces: the trace ring as JSON, newest
// first, filterable by route (?route=/v1/shortest) and minimum root
// duration (?min_ms=5).  Mounted only when tracing is on or Config.Debug
// is set; like the other ops endpoints it bypasses the limiter, because
// traces of an overloaded service are exactly what the ring is for.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := query(r.URL.RawQuery)
	route := q.Get("route")
	var minMS float64
	if ms := q.Get("min_ms"); ms != "" {
		v, err := strconv.ParseFloat(ms, 64)
		if err != nil || math.IsNaN(v) {
			http.Error(w, "bad min_ms "+strconv.Quote(ms), http.StatusBadRequest)
			return
		}
		minMS = v
	}
	all, total := s.traceRing.Snapshot()
	traces := make([]*span.Trace, 0, len(all))
	for _, t := range all {
		if route != "" && t.Route != route {
			continue
		}
		if t.DurationMS < minMS {
			continue
		}
		traces = append(traces, t)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		SampleEvery int           `json:"sample_every"`
		Total       uint64        `json:"total"`
		Traces      []*span.Trace `json:"traces"`
	}{max(s.cfg.TraceSample, 0), total, traces})
}
