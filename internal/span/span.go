// Package span is the request-level tracing layer: spans with IDs,
// parent links, start/duration, and bounded attributes, propagated
// through context.Context from the HTTP edge down to the conversion
// kernels, and collected — per W3C Trace Context identity — into
// bounded in-memory traces.
//
// The package is deliberately self-contained (stdlib only, no
// OpenTelemetry dependency): the serving layer needs exactly four
// things from a tracing system — W3C `traceparent` interop so an
// upstream proxy's trace ID survives into this process, cheap
// context-carried child spans so handlers can attribute time to
// decode/convert/encode stages, deterministic head sampling so
// capture cost is bounded and reproducible, and a bounded ring of
// completed traces an operator can read without a collector sidecar.
// Everything else a full tracing SDK adds (exporters, batch
// processors, resource detection) is weight this process does not
// carry.
//
// Cost model: when a Tracer is not installed (or a request is handled
// without one), every Span method is a nil-receiver no-op, so
// instrumented code paths pay one pointer test.  When tracing is on,
// spans for *every* request are recorded into a small per-request
// buffer — not just head-sampled ones — because the capture decision
// is partly retrospective: a request that turns out slow or ends 5xx
// is always published, whatever the sampling rate said at its start.
// The per-request buffer is bounded (MaxSpans, MaxAttrs), so the
// worst-case cost per request is a few hundred bytes and a handful of
// appends.
//
// Sampling is deterministic given (Seed, TraceID): the head decision
// hashes the trace ID with the seeded mix rather than consulting a
// global RNG, so a replayed request with the same traceparent gets
// the same decision, two replicas sharing a seed agree on which
// traces to keep, and tests can pin decisions exactly.  An incoming
// traceparent with the `sampled` flag set forces capture — the
// upstream already decided this trace matters.
package span

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the W3C 16-byte trace identity shared by every span of
// one request's trace.
type TraceID [16]byte

// SpanID is the W3C 8-byte span identity.
type SpanID [8]byte

// IsZero reports the all-zero (invalid per W3C) trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the all-zero (invalid per W3C) span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Attr is one span attribute.  Values are strings: the set of facts a
// span carries (route, backend name, digit count) is small and
// human-destined, so a typed value union would buy nothing.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Record is one finished span, shaped for JSON at /debug/traces.
type Record struct {
	TraceID    string    `json:"trace_id,omitempty"`
	SpanID     string    `json:"span_id,omitempty"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// Trace is one completed, published request trace: the root span
// first, children in end order after it.
type Trace struct {
	// TraceID is empty for a request captured without a span (its
	// server had tracing off): it never had a trace identity.
	TraceID string `json:"trace_id,omitempty"`
	// Route is the root span's name, duplicated here so ring readers
	// can filter without walking spans.
	Route string `json:"route"`
	// DurationMS is the root span's duration.
	DurationMS float64 `json:"duration_ms"`
	// Reason says why the trace was kept: "head" (sampled at the
	// start), "slow" (>= the slow threshold), or "error" (5xx).
	Reason string `json:"reason"`
	// Dropped counts spans discarded past the per-trace cap.
	Dropped int      `json:"dropped_spans,omitempty"`
	Spans   []Record `json:"spans"`
}

// Config tunes a Tracer.  The zero value of every field gets a
// default from New except SampleEvery, which callers choose.
type Config struct {
	// SampleEvery is the head-sampling rate: 1 keeps every trace, N>1
	// keeps roughly 1 in N (decided deterministically per trace ID).
	// Zero or negative keeps none at the head — slow and error
	// captures still fire.
	SampleEvery int
	// SlowRequest is the root-span duration at or above which a trace
	// is always published, sampled or not.  Zero disables the slow
	// trigger.
	SlowRequest time.Duration
	// Ring receives the published traces.  Nil means a new 64-trace
	// ring.
	Ring *Ring
	// MaxSpans bounds spans kept per trace; later spans are counted
	// in Trace.Dropped instead of stored.  Zero means 64.
	MaxSpans int
	// MaxAttrs bounds attributes kept per span; later SetAttr calls
	// are dropped.  Zero means 16.
	MaxAttrs int
	// Seed drives ID generation and the sampling decision.  Zero
	// means a random seed; tests and replica fleets set it for
	// reproducible decisions.
	Seed uint64
}

// Tracer owns the ID generator and the sampling decision, and publishes
// completed traces into its ring.  All methods are safe for concurrent
// use.
type Tracer struct {
	cfg   Config
	seed  uint64
	state atomic.Uint64 // ID-generator walk, advanced per 8 bytes
}

// New builds a Tracer, applying defaults.
func New(cfg Config) *Tracer {
	if cfg.Ring == nil {
		cfg.Ring = NewRing(64)
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 64
	}
	if cfg.MaxAttrs <= 0 {
		cfg.MaxAttrs = 16
	}
	seed := cfg.Seed
	if seed == 0 {
		var b [8]byte
		rand.Read(b[:]) // per crypto/rand docs, never fails
		seed = binary.LittleEndian.Uint64(b[:])
	}
	t := &Tracer{cfg: cfg, seed: seed}
	t.state.Store(seed)
	return t
}

// Ring returns the completed-trace ring for readers (/debug/traces).
func (t *Tracer) Ring() *Ring { return t.cfg.Ring }

// splitmix64 is the SplitMix64 output function: a full-avalanche
// mixer, used both to walk the ID generator and to hash trace IDs
// into sampling decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next8 yields the next 8 pseudo-random ID bytes.
func (t *Tracer) next8() uint64 { return splitmix64(t.state.Add(0x9e3779b97f4a7c15)) }

// newTraceID mints a non-zero trace ID.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], t.next8())
		binary.BigEndian.PutUint64(id[8:], t.next8())
	}
	return id
}

// newSpanID mints a non-zero span ID.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], t.next8())
	}
	return id
}

// Sampled is the deterministic head decision for a trace ID: keep
// when the seeded hash of the ID lands in the 1-in-SampleEvery slice.
// The same (seed, ID) pair always decides the same way.
func (t *Tracer) Sampled(id TraceID) bool {
	n := t.cfg.SampleEvery
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	h := splitmix64(t.seed ^ binary.BigEndian.Uint64(id[:8]) ^ binary.BigEndian.Uint64(id[8:]))
	return h%uint64(n) == 0
}

// activeTrace accumulates one request's finished spans until the root
// ends and the publish decision is made.
type activeTrace struct {
	mu      sync.Mutex
	spans   []Record
	dropped int
	max     int
}

func (a *activeTrace) add(r Record) {
	a.mu.Lock()
	if len(a.spans) < a.max {
		a.spans = append(a.spans, r)
	} else {
		a.dropped++
	}
	a.mu.Unlock()
}

// Span is one live span.  A nil *Span is valid everywhere: every
// method no-ops, so instrumentation points cost one pointer test when
// tracing is off.  A Span's mutating methods (SetAttr, End) are meant
// for the goroutine that started it; the cross-goroutine handoff
// happens at publication through the ring.
type Span struct {
	tracer  *Tracer
	trace   *activeTrace
	traceID TraceID
	id      SpanID
	parent  SpanID
	name    string
	start   time.Time
	attrs   []Attr
	sampled bool // head decision, root only
	ended   bool
}

// StartRequest opens a request root span named name (by convention
// the route).  traceparent, when it parses as a W3C header, donates
// the trace ID and remote parent — and its sampled flag forces
// capture; otherwise a fresh trace ID is minted.  The returned
// context carries the span for FromContext.
func (t *Tracer) StartRequest(ctx context.Context, name, traceparent string) (*Span, context.Context) {
	var traceID TraceID
	var parent SpanID
	forced := false
	if tid, psid, sampled, ok := ParseTraceParent(traceparent); ok {
		traceID, parent, forced = tid, psid, sampled
	} else {
		traceID = t.newTraceID()
	}
	s := &Span{
		tracer:  t,
		trace:   &activeTrace{max: t.cfg.MaxSpans},
		traceID: traceID,
		id:      t.newSpanID(),
		parent:  parent,
		name:    name,
		start:   time.Now(),
		sampled: forced || t.Sampled(traceID),
	}
	return s, ContextWithSpan(ctx, s)
}

// StartChild opens a child span under s.  Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer:  s.tracer,
		trace:   s.trace,
		traceID: s.traceID,
		id:      s.tracer.newSpanID(),
		parent:  s.id,
		name:    name,
		start:   time.Now(),
	}
}

// Recording reports whether the span is live (non-nil), i.e. whether
// building attributes for it does anything.
func (s *Span) Recording() bool { return s != nil }

// TraceID returns the span's trace identity as 32 hex digits, "" for
// a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID.String()
}

// ID returns the span's identity as 16 hex digits, "" for nil.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id.String()
}

// TraceParent renders the span as an outgoing W3C traceparent header
// value (for handlers that call further services), "" for nil.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return FormatTraceParent(s.traceID, s.id, s.sampled)
}

// SetAttr attaches one key/value fact, up to the tracer's per-span
// cap.  Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil || len(s.attrs) >= s.tracer.cfg.MaxAttrs {
		return
	}
	s.attrs = append(s.attrs, Attr{key, value})
}

// SetAttrInt is SetAttr for integer facts.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, itoa(v))
}

// itoa avoids strconv for the package's only int formatting need.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// record converts the span to its finished Record.
func (s *Span) record(end time.Time) Record {
	r := Record{
		TraceID:    s.traceID.String(),
		SpanID:     s.id.String(),
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(end.Sub(s.start)) / 1e6,
		Attrs:      s.attrs,
	}
	if !s.parent.IsZero() {
		r.ParentID = s.parent.String()
	}
	return r
}

// End finishes a child span, folding it into the request's trace
// buffer.  Ending twice is a no-op.  Nil-safe.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.trace.add(s.record(time.Now()))
}

// EndRequest finishes a root span and decides publication: the trace
// lands in the ring when the head decision sampled it, when the
// request ran at or over the tracer's slow threshold, or when status
// is a 5xx.  It returns the publish reason ("head", "slow", "error")
// or "" when the trace was discarded.  Nil-safe.
func (s *Span) EndRequest(status int) string {
	if s == nil || s.ended {
		return ""
	}
	s.ended = true
	end := time.Now()
	dur := end.Sub(s.start)

	reason := ""
	switch {
	case s.sampled:
		reason = "head"
	case status >= 500:
		reason = "error"
	case s.tracer.cfg.SlowRequest > 0 && dur >= s.tracer.cfg.SlowRequest:
		reason = "slow"
	}
	if reason == "" {
		return ""
	}

	root := s.record(end)
	s.trace.mu.Lock()
	spans := make([]Record, 0, len(s.trace.spans)+1)
	spans = append(spans, root)
	spans = append(spans, s.trace.spans...)
	dropped := s.trace.dropped
	s.trace.mu.Unlock()

	s.tracer.cfg.Ring.Add(&Trace{
		TraceID:    root.TraceID,
		Route:      root.Name,
		DurationMS: root.DurationMS,
		Reason:     reason,
		Dropped:    dropped,
		Spans:      spans,
	})
	return reason
}

// ctxKey keys the span context value.
type ctxKey struct{}

// ContextWithSpan stores s on the context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the context's span, nil when the request is not
// traced — the nil flows safely into every Span method.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
