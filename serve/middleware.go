package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"floatprint/internal/span"
)

// record is one served conversion request's record and the
// response writer its handler writes through: it counts the status and
// bytes the handler produced, and holds the request id, start time and
// root span (nil when tracing is off).  limited puts it on the request
// context — the only value it adds there — where RequestID and the
// handlers' span lookup read it back.
type record struct {
	http.ResponseWriter
	id     string
	start  time.Time
	span   *span.Span
	status int
	bytes  int64
}

func (w *record) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *record) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming batch responses
// keep flushing through the record.
func (w *record) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the real writer through
// the record.
func (w *record) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// recordKey keys the record on the context.
type recordKey struct{}

// RequestID returns the request id limited assigned, or "" outside a
// conversion request.  Handlers and downstream code use it to tie their
// own log lines to the access log.
func RequestID(ctx context.Context) string {
	if rec, ok := ctx.Value(recordKey{}).(*record); ok {
		return rec.id
	}
	return ""
}

// spanOf returns the root span of the conversion request ctx belongs
// to, nil when tracing is off — the nil flows safely into every Span
// method.
func spanOf(ctx context.Context) *span.Span {
	if rec, ok := ctx.Value(recordKey{}).(*record); ok {
		return rec.span
	}
	return nil
}

// requestIDs mints process-unique request ids: a random 4-byte hex
// prefix (so ids from different server instances or restarts never
// collide in aggregated logs), a dash, and an atomic per-process
// counter in at least 8 hex digits.
type requestIDs struct {
	prefix string
	n      atomic.Uint64
}

func newRequestIDs() *requestIDs {
	var b [4]byte
	rand.Read(b[:]) // per crypto/rand docs, never fails
	return &requestIDs{prefix: hex.EncodeToString(b[:])}
}

func (g *requestIDs) next() string {
	var buf [32]byte
	id := append(buf[:0], g.prefix...)
	id = append(id, '-')
	var digits [16]byte
	n := strconv.AppendUint(digits[:0], g.n.Add(1), 16)
	for i := len(n); i < 8; i++ {
		id = append(id, '0')
	}
	return string(append(id, n...))
}

// limited is a conversion route's one wrapper, in this order: count
// the arrival; mint the request id and echo it (and, when tracing is
// on, the trace id, adopted from an upstream W3C traceparent when the
// client sent one); admit the request or shed it with 429 and a
// Retry-After hint; bound it with RequestTimeout; run the handler on a
// clone of the request whose context carries the record.
//
// Identity is echoed before admission, so X-Request-Id and X-Trace-Id
// come back on every outcome — 429 sheds, 400s and panic 500s
// included — because the error responses are the ones a client most
// needs to correlate with server-side telemetry.  Sheds are counted,
// timed and logged like admitted work: the latency histogram under
// overload shows the cheap 429s next to the admitted requests, which
// is the shape an operator needs to see.
//
// RequestTimeout reaches the handler two ways: as a connection read
// deadline, which bounds body reads on every route (a client that
// stalls mid-body fails its next Read instead of pinning an admission
// slot), and as context cancellation, which only the batch routes
// observe — between chunks while printing, between blocks while
// parsing.  A single-value conversion runs to completion.
func (s *Server) limited(route string, h http.HandlerFunc) http.Handler {
	rm := s.metrics.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rm.requests.Inc()
		rec := &record{ResponseWriter: w, id: s.reqIDs.next(), start: time.Now()}
		w.Header().Set("X-Request-Id", rec.id)
		if s.tracer != nil {
			rec.span = s.tracer.StartRequest(r.Header.Get("traceparent"))
			w.Header().Set("X-Trace-Id", rec.span.TraceID())
		}
		defer s.finish(route, rm, rec, r)

		if !s.limiter.tryAcquire() {
			s.metrics.sheds.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			http.Error(rec, fmt.Sprintf("in-flight cap %d reached, retry later", s.limiter.limit()),
				http.StatusTooManyRequests)
			return
		}
		defer s.limiter.release()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// Best effort: a writer without deadline support (httptest's
		// recorder) still gets the context deadline.
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
		h(rec, r.WithContext(context.WithValue(ctx, recordKey{}, rec)))
	})
}

// finish is limited's deferred block: it records the finished request
// — status, duration and bytes — into the route metrics, the access
// log and, when the capture rule keeps it, the trace ring, and it is
// the one place a conversion route's panic is recovered.  A panic
// counts in fpserved_panics_total and is recorded as a 500, with bytes
// still counting only what the handler wrote; the client gets a 500
// when nothing was written yet, and a broken connection otherwise, so a
// truncated response cannot pass for a complete one.  The net/http
// abort sentinel is re-raised, with the status the handler already
// committed: it is how a streaming handler deliberately breaks a
// connection mid-response, not a 500.
func (s *Server) finish(route string, rm *routeMetrics, rec *record, r *http.Request) {
	p := recover()
	dur := time.Since(rec.start)
	status := rec.status
	if p != nil && p != http.ErrAbortHandler {
		status = http.StatusInternalServerError
	} else if status == 0 {
		status = http.StatusOK
	}
	s.metrics.observe(rm, status, dur.Seconds(), rec.bytes)

	if s.slog != nil {
		level := slog.LevelInfo
		if status >= 500 {
			level = slog.LevelWarn
		}
		attrs := []slog.Attr{
			slog.String("request_id", rec.id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("duration", dur),
		}
		if rec.span != nil {
			attrs = append(attrs, slog.String("trace_id", rec.span.TraceID()))
		}
		s.slog.LogAttrs(r.Context(), level, "request", attrs...)
	}

	if reason := rec.span.Keep(status, dur, s.cfg.SlowRequest); reason != "" {
		s.traceRing.Add(rec.span.Trace(span.Record{
			Name:       route,
			Start:      rec.start,
			DurationMS: float64(dur) / 1e6,
			Attrs: []span.Attr{
				{Key: "request_id", Value: rec.id},
				{Key: "method", Value: r.Method},
				{Key: "status", Value: strconv.Itoa(status)},
				{Key: "bytes", Value: strconv.FormatInt(rec.bytes, 10)},
			},
		}, reason))
	}

	switch {
	case p == nil:
	case p == http.ErrAbortHandler:
		panic(p)
	default:
		s.metrics.panics.Inc()
		s.log.Printf("serve: panic in %s %s: %v", r.Method, r.URL.Path, p)
		if rec.status != 0 {
			panic(http.ErrAbortHandler)
		}
		http.Error(rec.ResponseWriter, "internal server error", http.StatusInternalServerError)
	}
}

// recovered is the mux guard.  The conversion routes recover their own
// panics in finish; this catches the rest (the ops endpoints), turns
// them into 500s and counts them.  The net/http abort sentinel is
// re-raised: it is how a handler deliberately breaks a connection
// mid-response (e.g. a batch input error after bytes have been
// written), and swallowing it would turn a visibly broken stream into a
// silently truncated "success".
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
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}()
		h.ServeHTTP(w, r)
	})
}
