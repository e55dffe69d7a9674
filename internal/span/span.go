// Package span is the request-level tracing layer: spans with IDs,
// parent links, start/duration, and bounded attributes, propagated
// from the HTTP edge down to the conversion kernels, and collected —
// per W3C Trace Context identity — into bounded in-memory traces.
//
// The package is deliberately self-contained (stdlib only, no
// OpenTelemetry dependency): the serving layer needs exactly four
// things from a tracing system — W3C `traceparent` interop so an
// upstream proxy's trace ID survives into this process, cheap child
// spans so handlers can attribute time to decode/convert/encode
// stages, deterministic head sampling so capture cost is bounded and
// reproducible, and a bounded ring of
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
// is partly retrospective: Keep keeps a request that turns out slow
// or ends 5xx, whatever the sampling rate said at its start.  The
// per-request buffer is bounded (MaxSpans, MaxAttrs), so the
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
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strconv"
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

// MaxSpans bounds the child spans kept per trace; later ones are
// counted in Trace.Dropped instead of stored.  MaxAttrs bounds the
// attributes kept per span; later SetAttr calls are dropped.
const (
	MaxSpans = 64
	MaxAttrs = 16
)

// Config tunes a Tracer.
type Config struct {
	// SampleEvery is the head-sampling rate: 1 keeps every trace, N>1
	// keeps roughly 1 in N (decided deterministically per trace ID).
	// Zero or negative keeps none at the head — slow and error
	// captures still fire.
	SampleEvery int
	// Seed drives ID generation and the sampling decision.  Zero
	// means a random seed; tests and replica fleets set it for
	// reproducible decisions.
	Seed uint64
}

// Tracer owns the ID generator and the head-sampling decision.  All
// methods are safe for concurrent use.
type Tracer struct {
	every int
	seed  uint64
	state atomic.Uint64 // ID-generator walk, advanced per 8 bytes
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	seed := cfg.Seed
	if seed == 0 {
		var b [8]byte
		rand.Read(b[:]) // per crypto/rand docs, never fails
		seed = binary.LittleEndian.Uint64(b[:])
	}
	t := &Tracer{every: cfg.SampleEvery, seed: seed}
	t.state.Store(seed)
	return t
}

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
	n := t.every
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	h := splitmix64(t.seed ^ binary.BigEndian.Uint64(id[:8]) ^ binary.BigEndian.Uint64(id[8:]))
	return h%uint64(n) == 0
}

// activeTrace accumulates one request's finished child spans until the
// request ends and its capture is decided.
type activeTrace struct {
	mu      sync.Mutex
	spans   []Record
	dropped int
}

func (a *activeTrace) add(r Record) {
	a.mu.Lock()
	if len(a.spans) < MaxSpans {
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

// StartRequest opens a request's root span.  traceparent, when it
// parses as a W3C header, donates the trace ID and remote parent — and
// its sampled flag forces capture; otherwise a fresh trace ID is
// minted.  The root span carries the trace identity and collects the
// children; the root record itself — name, timing, attributes — is the
// caller's, handed to Trace when the request ends.
func (t *Tracer) StartRequest(traceparent string) *Span {
	var traceID TraceID
	var parent SpanID
	forced := false
	if tid, psid, sampled, ok := ParseTraceParent(traceparent); ok {
		traceID, parent, forced = tid, psid, sampled
	} else {
		traceID = t.newTraceID()
	}
	return &Span{
		tracer:  t,
		trace:   &activeTrace{},
		traceID: traceID,
		id:      t.newSpanID(),
		parent:  parent,
		sampled: forced || t.Sampled(traceID),
	}
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

// SetAttr attaches one key/value fact, up to MaxAttrs per span.
// Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil || len(s.attrs) >= MaxAttrs {
		return
	}
	s.attrs = append(s.attrs, Attr{key, value})
}

// SetAttrInt is SetAttr for integer facts.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// End finishes a child span, folding it into the request's trace
// buffer.  Ending twice is a no-op.  Nil-safe.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	r := Record{
		TraceID:    s.traceID.String(),
		SpanID:     s.id.String(),
		ParentID:   s.parent.String(),
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(time.Since(s.start)) / 1e6,
		Attrs:      s.attrs,
	}
	s.trace.add(r)
}

// Keep is the capture rule for a finished request whose root span is
// s: it returns why the request's trace is published — "head" when s
// was head-sampled, "error" for a 5xx status, "slow" when the request
// took at least slow — or "" when it is discarded.  A nil s (the
// request ran untraced) has no head verdict; the other two reasons
// still apply.
func (s *Span) Keep(status int, dur, slow time.Duration) string {
	switch {
	case s != nil && s.sampled:
		return "head"
	case status >= 500:
		return "error"
	case dur >= slow:
		return "slow"
	}
	return ""
}

// Trace assembles the published trace of a request kept for reason:
// root, the request's own record, stamped with s's identity, then the
// child spans ended under s so far.  A nil s (the request ran
// untraced) yields root alone, with no trace identity.
func (s *Span) Trace(root Record, reason string) *Trace {
	t := &Trace{Route: root.Name, DurationMS: root.DurationMS, Reason: reason}
	if s == nil {
		t.Spans = []Record{root}
		return t
	}
	root.TraceID, root.SpanID = s.traceID.String(), s.id.String()
	if !s.parent.IsZero() {
		root.ParentID = s.parent.String()
	}
	t.TraceID = root.TraceID
	s.trace.mu.Lock()
	t.Spans = append(make([]Record, 0, len(s.trace.spans)+1), root)
	t.Spans = append(t.Spans, s.trace.spans...)
	t.Dropped = s.trace.dropped
	s.trace.mu.Unlock()
	return t
}
