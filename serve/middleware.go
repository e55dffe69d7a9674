package serve

import (
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
// root span (nil when tracing is off).  Handlers reach it through the
// writer they receive (spanOf, requestID, lineBuf, writeLine).  It also
// backs what a single-value response would otherwise allocate: the
// X-Request-Id and Content-Type header values, and the response line.
type record struct {
	http.ResponseWriter
	id     string
	start  time.Time
	span   *span.Span
	status int
	bytes  int64
	idHdr  [1]string // X-Request-Id's value slice
	ctHdr  [1]string // Content-Type's value slice, set by writeLine
	line   [64]byte  // lineBuf's backing array
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

// Unwrap lets http.ResponseController reach the real writer through
// the record.
func (w *record) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// spanOf returns the root span of the conversion request w serves, nil
// when tracing is off or w is not a record — the nil flows safely into
// every Span method.
func spanOf(w http.ResponseWriter) *span.Span {
	if rec, ok := w.(*record); ok {
		return rec.span
	}
	return nil
}

// requestID returns the request id limited assigned to the request w
// serves, or "" when w is not a record.
func requestID(w http.ResponseWriter) string {
	if rec, ok := w.(*record); ok {
		return rec.id
	}
	return ""
}

// lineBuf returns an empty buffer for w's response line: the record's
// array when w is one, so a line that fits it allocates nothing.
func lineBuf(w http.ResponseWriter) []byte {
	if rec, ok := w.(*record); ok {
		return rec.line[:0]
	}
	return nil
}

// textPlain is the single-value routes' Content-Type.
const textPlain = "text/plain; charset=utf-8"

// writeLine writes out and a newline as a text/plain response; out
// usually comes from lineBuf(w).
func writeLine(w http.ResponseWriter, out []byte) {
	if rec, ok := w.(*record); ok {
		rec.ctHdr[0] = textPlain
		w.Header()["Content-Type"] = rec.ctHdr[:]
	} else {
		w.Header().Set("Content-Type", textPlain)
	}
	w.Write(append(out, '\n'))
}

// deadliner is the read-deadline method of net/http's response writer.
type deadliner interface {
	SetReadDeadline(time.Time) error
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
// Retry-After hint; set the connection's read deadline RequestTimeout
// ahead; run the handler with the record as its writer.
//
// Identity is echoed before admission, so X-Request-Id and X-Trace-Id
// come back on every outcome — 429 sheds, 400s and panic 500s
// included — because the error responses are the ones a client most
// needs to correlate with server-side telemetry.  Sheds are counted,
// timed and logged like admitted work: the latency histogram under
// overload shows the cheap 429s next to the admitted requests, which
// is the shape an operator needs to see.
//
// The read deadline bounds body reads on every route: a client that
// stalls mid-body fails its next Read instead of pinning an admission
// slot, and net/http's discard of a body the handler left unread ends
// there too, so the response goes out.  Only the batch routes observe
// cancellation, so they alone derive a RequestTimeout context; a
// single-value conversion runs to completion.
func (s *Server) limited(route string, h http.HandlerFunc) http.Handler {
	rm := s.metrics.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rm.requests.Inc()
		rec := &record{ResponseWriter: w, id: s.reqIDs.next(), start: time.Now()}
		rec.idHdr[0] = rec.id
		w.Header()["X-Request-Id"] = rec.idHdr[:]
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

		// Best effort: a writer without the method (httptest's
		// recorder) gets no deadline.
		if d, ok := w.(deadliner); ok {
			_ = d.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
		}
		h(rec, r)
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
