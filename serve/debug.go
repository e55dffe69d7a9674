package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// ctxKey keys the serve package's context values.
type ctxKey int

const requestIDKey ctxKey = iota

// requestIDs mints process-unique request ids: a random 4-byte hex
// prefix (so ids from different server instances or restarts never
// collide in aggregated logs) plus an atomic per-process counter.
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
	return fmt.Sprintf("%s-%08x", g.prefix, g.n.Add(1))
}

// withRequestID stores the id on the context for handlers and the batch
// abort path.
func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the request id assigned by the instrumented
// middleware, or "" outside a conversion request.  Handlers and
// downstream code use it to tie their own log lines to the access log.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// mountDebug registers net/http/pprof's profiling handlers.  These
// bypass the limiter like the other ops endpoints — a pprof profile is
// most valuable exactly when the service is saturated — but are only
// mounted when Config.Debug is set, so a production deployment does not
// expose profiling to anyone who can reach the port unless asked to.
func (s *Server) mountDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
