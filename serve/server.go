// Package serve is the network front end: it exposes the library's
// conversion paths — single-value shortest and fixed format, and the
// batch engine's ordered streaming — over HTTP, production-shaped.
//
// "Production-shaped" means the parts a toy mux omits:
//
//   - Admission control.  At most Config.InFlight conversion requests
//     run at once; excess load is shed immediately with 429 and a
//     Retry-After hint instead of queueing unboundedly (a conversion
//     service's queue is pure memory growth: every queued batch holds
//     its body buffers while it waits).
//   - Per-request timeouts: a read deadline bounds body reads on every
//     conversion route, so a stalled client cannot hold an admission
//     slot or hold back its answer, and the batch routes alone derive
//     a deadline context and stop converting at it
//     (batch.Pool.WriteAll checks it per chunk, ParseAll per block).
//     A single-value conversion runs to completion.
//   - Bounded work per value: every number the service reads — each
//     query value and each batch token — goes through the library's
//     own reader and grammar (floatprint.Parse, or the pool's parse
//     engine for a text body), and MaxValueBytes caps it, so no value
//     can make a conversion's cost run away.
//   - Panic recovery that converts handler panics to 500s and counts
//     them, without masking net/http's own abort sentinel.
//   - Graceful shutdown: Shutdown stops accepting and drains in-flight
//     batches up to the caller's deadline.
//   - Observability: /metrics exposes the library's conversion-path
//     telemetry (floatprint.Stats.WritePrometheus), per-route RED
//     metrics (request/error counters and a latency histogram labeled
//     by route), and a runtime collector (goroutines, heap, GC, build
//     info) through one Prometheus text scrape, so the path mix and
//     the traffic that produced it are read together.  Request-span
//     tracing (Config.TraceSample) captures sampled, slow, and failing
//     requests as W3C-propagated traces served at /debug/traces.
//
// Endpoints:
//
//	GET  /v1/shortest?v=0.3[&base=16&mode=unknown&notation=sci&nomarks=1&bits=32]
//	GET  /v1/parse?s=1.25e-3[&bits=32]  read with the library's certified
//	                                    fast-path reader (same base/mode
//	                                    options); responds with the value's
//	                                    shortest rendering
//	GET  /v1/interval?lo=0.1&hi=0.3     shortest decimal interval enclosing
//	                                    [lo, hi]; or ?s=[0.1,0.3] to read
//	                                    interval text with outward rounding
//	                                    and respond with the enclosing
//	                                    rendering of the parsed endpoints
//	GET  /v1/fixed?v=3.14159&n=3        (or &pos=-2 for absolute position;
//	                                    bits=32 takes n only)
//	POST /v1/batch                      separator-delimited decimal text (the
//	                                    batch grammar), or packed little-endian
//	                                    float64s with Content-Type
//	                                    application/octet-stream; responds with
//	                                    NDJSON shortest renderings, streamed
//	POST /v1/batch-parse                separator-delimited decimal text in,
//	                                    packed little-endian float64s out,
//	                                    streamed through the block-at-a-time
//	                                    batch parse engine in bounded memory
//	GET  /healthz
//	GET  /metrics
//	GET  /debug/pprof/*      (opt-in: Config.Debug)
//	GET  /debug/traces       (opt-in: Config.TraceSample > 0 or
//	                          Config.Debug; recent sampled, slow, and
//	                          5xx requests as traces, newest first,
//	                          filterable by ?route= and ?min_ms=)
//
// Every conversion request is assigned a process-unique request id,
// returned in the X-Request-Id header and logged (when Config.Slog is
// set) in a structured access-log record; when tracing is enabled the
// trace id rides alongside it (X-Trace-Id header, trace_id log attr),
// so one captured trace, one log line, and one client-observed response
// tie together by id.
//
// The batch response is byte-identical to floatprint.AppendShortest on
// each value followed by '\n', whatever the shard count — the same
// invariant the batch package maintains.
package serve

import (
	"context"
	"errors"
	"log"
	"log/slog"
	"net"
	"net/http"
	"time"

	"floatprint/batch"
	"floatprint/internal/span"
)

// Config tunes a Server.  The zero value is ready to use.
type Config struct {
	// Addr is the listen address ("127.0.0.1:0" picks a random port).
	// Empty means ":8080".
	Addr string
	// InFlight caps concurrently admitted conversion requests; arrivals
	// past the cap are shed with 429 + Retry-After.  Zero or negative
	// means 64.  /healthz and /metrics are exempt so the service stays
	// observable under pressure.
	InFlight int
	// RequestTimeout is each conversion request's deadline.  As the
	// connection's read deadline it bounds body reads on every route,
	// including net/http's discard of a body a handler left unread.  The
	// batch routes also derive a context with it, and stop between
	// chunks and between parse blocks when it expires.  A single-value
	// conversion runs to completion, which MaxValueBytes bounds: its
	// worst input reads in tens of milliseconds.  Zero means 30s.
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with shed responses.  Zero
	// means 1s.
	RetryAfter time.Duration
	// MaxBatchBytes caps a /v1/batch or /v1/batch-parse request body.
	// Zero means 1 GiB.
	MaxBatchBytes int64
	// BatchShards and BatchChunk configure the underlying batch.Pool
	// (zero means the pool's defaults: GOMAXPROCS shards, 4096-value
	// chunks).
	BatchShards int
	BatchChunk  int
	// Logger receives shed, panic, and lifecycle lines.  Nil means the
	// standard logger.
	Logger *log.Logger
	// Slog, when non-nil, receives one structured access-log record per
	// conversion request (request_id, method, path, status, bytes,
	// duration; level Warn for 5xx).  The request id is also returned in
	// the X-Request-Id response header, and the batch routes' abort log
	// lines carry it.  Nil disables access logging; request ids are
	// still assigned.
	Slog *slog.Logger
	// Debug mounts the profiling surface: /debug/pprof/* (net/http/pprof)
	// and, when tracing is off, /debug/traces, where slow and 5xx
	// requests then appear as one-span traces.  Off by default —
	// profiling endpoints should be a deployment decision, not a given.
	Debug bool
	// SlowRequest is the duration at or above which a finished request is
	// always published to the trace ring, whatever the sampling rate said
	// (with tracing off, as a one-span trace).  5xx requests always are.
	// Zero means 250ms.
	SlowRequest time.Duration
	// TraceSample turns on request-span tracing and sets the head
	// sampling rate: 1 traces every request, N keeps roughly 1 in N
	// (decided deterministically per W3C trace ID, so replicas sharing
	// TraceSeed agree).  Zero or negative disables tracing entirely —
	// handlers then pay one nil-pointer test per instrumentation point.
	// Slow and 5xx requests are always captured when tracing is on,
	// whatever the rate.
	TraceSample int
	// TraceRing bounds the completed-trace ring behind /debug/traces.
	// Zero means 64.
	TraceRing int
	// TraceSeed seeds trace-ID generation and the sampling decision.
	// Zero means random; set it to make sampling reproducible across
	// restarts or consistent across a replica fleet.
	TraceSeed uint64
}

// Server is the fpserved HTTP service.
type Server struct {
	cfg       Config
	pool      *batch.Pool
	limiter   *limiter
	metrics   *metrics
	httpSrv   *http.Server
	ln        net.Listener
	log       *log.Logger
	slog      *slog.Logger
	reqIDs    *requestIDs
	traceRing *span.Ring   // behind /debug/traces
	tracer    *span.Tracer // nil when Config.TraceSample <= 0
	runtime   *runtimeStats
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	if cfg.InFlight <= 0 {
		cfg.InFlight = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 1 << 30
	}
	if cfg.SlowRequest <= 0 {
		cfg.SlowRequest = 250 * time.Millisecond
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = 64
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{
		cfg: cfg,
		pool: batch.New(batch.Config{
			Shards:        cfg.BatchShards,
			ChunkSize:     cfg.BatchChunk,
			Sep:           []byte{'\n'},
			MaxTokenBytes: MaxValueBytes,
		}),
		limiter:   newLimiter(cfg.InFlight),
		metrics:   newMetrics(),
		log:       logger,
		slog:      cfg.Slog,
		reqIDs:    newRequestIDs(),
		traceRing: span.NewRing(cfg.TraceRing),
	}
	s.tracer = newTracer(cfg)
	s.runtime = newRuntimeStats(s.reqIDs.prefix)
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          logger,
	}
	return s
}

// Handler returns the route set: each conversion route wrapped by
// limited, the whole mux guarded by recovered.  It is what the listener
// serves; tests drive it directly through httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// The ops endpoints skip limited: no admission, and no request
	// metrics, so scraping does not pollute the request counters it
	// reports.  The route string given to limited is the trace's route
	// and the metrics label, so it must match the pattern registered on
	// the mux — and must be one of the routes newMetrics pre-registered,
	// which route() enforces at wiring time.
	mux.Handle("/v1/shortest", s.limited("/v1/shortest", s.handleShortest))
	mux.Handle("/v1/parse", s.limited("/v1/parse", s.handleParse))
	mux.Handle("/v1/interval", s.limited("/v1/interval", s.handleInterval))
	mux.Handle("/v1/fixed", s.limited("/v1/fixed", s.handleFixed))
	mux.Handle("/v1/batch", s.limited("/v1/batch", s.handleBatch))
	mux.Handle("/v1/batch-parse", s.limited("/v1/batch-parse", s.handleBatchParse))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.tracer != nil || s.cfg.Debug {
		// Enabling tracing is itself the opt-in for the trace reader,
		// independent of the pprof surface: there is no point capturing
		// traces nobody can read.  With tracing off, Debug mounts it for
		// the one-span captures of slow and 5xx requests.
		mux.HandleFunc("/debug/traces", s.handleTraces)
	}
	if s.cfg.Debug {
		s.mountDebug(mux)
	}
	return s.recovered(mux)
}

// Listen binds the configured address.  After Listen, Addr reports the
// actual address (useful with ":0").
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address, or the configured one before
// Listen.
func (s *Server) Addr() string {
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return s.cfg.Addr
}

// Serve accepts connections on the listener until Shutdown.  It
// returns nil on graceful shutdown (http.ErrServerClosed is the normal
// exit, not an error).
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	err := s.httpSrv.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting new connections and drains in-flight
// requests — including streaming batches — until they finish or ctx
// expires, whichever comes first.  A non-nil return means the drain
// deadline passed with work still in flight.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.httpSrv.Shutdown(ctx)
}
