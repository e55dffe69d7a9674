// Command fpserved runs the floatprint conversion service: shortest
// and fixed-format conversion of single values, number parsing through
// the certified fast-path reader, outward-rounded interval printing and
// enclosure-guaranteed interval reading, streaming batch conversion
// over the sharded pool, bulk ingestion through the block-at-a-time
// batch parse engine (text in, packed little-endian float64 out), and
// Prometheus metrics, with explicit load-shedding at a configurable
// in-flight cap.
//
//	fpserved -addr :8080 -inflight 64
//
//	curl 'localhost:8080/v1/shortest?v=1e23'
//	curl 'localhost:8080/v1/parse?s=1.25e-3'
//	curl 'localhost:8080/v1/interval?lo=0.1&hi=0.3'
//	curl 'localhost:8080/v1/interval?s=%5B0.1,0.3%5D'
//	curl 'localhost:8080/v1/fixed?v=3.14159&n=3'
//	seq 1 10000 | awk '{print $1 * 0.1}' | curl -s --data-binary @- localhost:8080/v1/batch
//	seq 1 10000 | awk '{print $1 * 0.1}' | curl -s --data-binary @- localhost:8080/v1/batch-parse >packed.bin
//	curl localhost:8080/metrics
//
// Every conversion request gets a structured access-log line on stderr
// (log/slog: request_id, method, path, status, bytes, duration) and an
// X-Request-Id response header.  With -debug, /debug/pprof/* and
// /debug/traces are mounted too; with tracing off, recent requests
// slower than -slow-request and recent 5xx responses appear there as
// one-span traces carrying their request_id:
//
//	fpserved -debug -slow-request 100ms
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//	curl localhost:8080/debug/traces
//
// With -trace-sample N, every request runs under a W3C-propagated
// request span (incoming traceparent identities are adopted, and the
// trace id is echoed in X-Trace-Id); roughly 1 in N traces — plus every
// slow or 5xx request — lands in a bounded ring at /debug/traces:
//
//	fpserved -trace-sample 100
//	curl -H 'traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01' localhost:8080/v1/shortest?v=0.3
//	curl 'localhost:8080/debug/traces?route=/v1/shortest&min_ms=1'
//
// SIGINT/SIGTERM starts a graceful shutdown: the listener closes, and
// in-flight requests (streaming batches included) drain for up to
// -drain before the process exits — 0 on a clean drain, 1 if the
// deadline passed with work still running.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"floatprint"
	"floatprint/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use 127.0.0.1:0 for a random port)")
	inflight := flag.Int("inflight", 64, "max concurrent conversion requests before shedding 429s")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline: bounds request-body reads and stops batch conversion between chunks or blocks; a single-value conversion runs to completion")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
	maxBatch := flag.Int64("max-batch-bytes", 1<<30, "request-body cap for /v1/batch and /v1/batch-parse")
	shards := flag.Int("shards", 0, "batch pool shards (0 = GOMAXPROCS)")
	chunk := flag.Int("chunk", 0, "batch pool chunk size in values (0 = 4096)")
	statsOn := flag.Bool("stats", true, "collect conversion-path telemetry for /metrics")
	debug := flag.Bool("debug", false, "mount /debug/pprof/* and /debug/traces")
	slowReq := flag.Duration("slow-request", 250*time.Millisecond, "capture requests at least this slow into /debug/traces")
	jsonLog := flag.Bool("log-json", false, "emit the access log as JSON instead of logfmt-style text")
	traceSample := flag.Int("trace-sample", 0, "request tracing: 1 traces every request, N keeps 1 in N; 0 disables (slow and 5xx requests are always kept when on)")
	traceRing := flag.Int("trace-ring", 0, "completed traces kept for /debug/traces (0 = 64)")
	flag.Parse()

	logger := log.New(os.Stderr, "fpserved: ", log.LstdFlags)
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *jsonLog {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	floatprint.SetStatsEnabled(*statsOn)

	srv := serve.New(serve.Config{
		Addr:           *addr,
		InFlight:       *inflight,
		RequestTimeout: *timeout,
		RetryAfter:     *retryAfter,
		MaxBatchBytes:  *maxBatch,
		BatchShards:    *shards,
		BatchChunk:     *chunk,
		Logger:         logger,
		Slog:           slog.New(handler),
		Debug:          *debug,
		SlowRequest:    *slowReq,
		TraceSample:    *traceSample,
		TraceRing:      *traceRing,
	})
	if err := srv.Listen(); err != nil {
		logger.Fatal(err)
	}
	// The listen line goes to stdout in a fixed shape: scripts booting
	// fpserved on a random port (CI's e2e job) parse it for the address.
	fmt.Printf("fpserved listening on %s\n", srv.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errCh:
		if err != nil {
			logger.Fatal(err)
		}
		return
	case sig := <-sigCh:
		logger.Printf("received %s, draining in-flight requests (deadline %s)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain deadline exceeded: %v", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil {
		logger.Fatal(err)
	}
	logger.Print("drained cleanly")
}
