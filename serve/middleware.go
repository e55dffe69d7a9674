package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"floatprint/internal/span"
)

// statusWriter records the status code and byte count a handler
// produced, for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming batch responses
// keep flushing through the middleware wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the real writer through
// the metrics wrapper (the timed middleware sets per-request read
// deadlines on it).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// recovered converts handler panics into 500s and counts them.  The
// net/http abort sentinel is re-raised: it is how a streaming handler
// deliberately breaks a connection mid-response (e.g. a batch input
// error after bytes have been written), and swallowing it would turn a
// visibly broken stream into a silently truncated "success".
func (s *Server) recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.metrics.panics.Inc()
			s.log.Printf("serve: panic in %s %s: %v", r.Method, r.URL.Path, p)
			// Best effort: if the handler already wrote, this is a no-op
			// on the wire, but the connection still dies with the panic.
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}()
		h.ServeHTTP(w, r)
	})
}

// instrumented is the observability middleware of one route: it counts
// every arrival and times every response, sheds included — the latency
// histogram under overload shows the cheap 429s next to the admitted
// work, which is exactly the shape an operator needs to see.  It
// assigns the request id and, when tracing is on, opens the request's
// root span (adopting an upstream W3C traceparent identity when the
// client sent one) and carries it down via the request context.
//
// Identity is echoed before the handler runs: X-Request-Id and
// X-Trace-Id are response headers on every outcome — 429 sheds, 400s,
// and panic 500s included — because the error responses are the ones a
// client most needs to correlate with server-side telemetry.
//
// All post-request accounting runs in a deferred block that also
// observes panics: a panicking handler still lands in the per-route
// metrics, access log, and trace ring as a 500 before the panic is
// re-raised for the outer recovered middleware to turn into the wire
// response.  (The net/http abort sentinel keeps the status the handler
// already committed: an aborted stream is a deliberate mid-response
// failure, not a 500.)  A request that ran without a span (tracing off)
// and turned out slow or 5xx reaches the trace ring as a one-span trace.
func (s *Server) instrumented(route string, h http.Handler) http.Handler {
	rm := s.metrics.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rm.requests.Inc()
		id := s.reqIDs.next()
		w.Header().Set("X-Request-Id", id)
		ctx := withRequestID(r.Context(), id)

		var sp *span.Span
		if s.tracer != nil {
			sp, ctx = s.tracer.StartRequest(ctx, route, r.Header.Get("traceparent"))
			w.Header().Set("X-Trace-Id", sp.TraceID())
			sp.SetAttr("request_id", id)
			sp.SetAttr("method", r.Method)
		}
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			p := recover()
			dur := time.Since(start)
			status := sw.status
			if p != nil && p != http.ErrAbortHandler {
				status = http.StatusInternalServerError
			}
			if status == 0 {
				status = http.StatusOK
			}
			s.metrics.observe(rm, status, dur.Seconds(), sw.bytes)

			traceID := sp.TraceID()
			sp.SetAttrInt("status", int64(status))
			sp.SetAttrInt("bytes", sw.bytes)
			sp.EndRequest(status)

			if s.slog != nil {
				level := slog.LevelInfo
				if status >= 500 {
					level = slog.LevelWarn
				}
				attrs := []slog.Attr{
					slog.String("request_id", id),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Int("status", status),
					slog.Int64("bytes", sw.bytes),
					slog.Duration("duration", dur),
				}
				if traceID != "" {
					attrs = append(attrs, slog.String("trace_id", traceID))
				}
				s.slog.LogAttrs(r.Context(), level, "request", attrs...)
			}
			if sp == nil && (dur >= s.cfg.SlowRequest || status >= 500) {
				s.traceRing.Add(untracedTrace(route, start, dur, status,
					span.Attr{Key: "request_id", Value: id}, span.Attr{Key: "method", Value: r.Method},
					span.Attr{Key: "status", Value: strconv.Itoa(status)},
					span.Attr{Key: "bytes", Value: strconv.FormatInt(sw.bytes, 10)}))
			}
			if p != nil {
				panic(p)
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// admitted enforces the in-flight cap: claim a slot or shed with 429
// and a Retry-After hint.
func (s *Server) admitted(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.limiter.tryAcquire() {
			s.metrics.sheds.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			http.Error(w, fmt.Sprintf("in-flight cap %d reached, retry later", s.limiter.limit()),
				http.StatusTooManyRequests)
			return
		}
		defer s.limiter.release()
		h.ServeHTTP(w, r)
	})
}

// timed bounds the request with the configured timeout.  The deadline
// reaches the handler two ways: as context cancellation (the batch
// engine checks it every chunk while converting) and as a connection
// read deadline (a client that stalls mid-body fails its next Read
// instead of pinning an admission slot forever).
func (s *Server) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// Best effort: httptest's plain ResponseRecorder has no
		// deadline support, and the ctx deadline still applies there.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
