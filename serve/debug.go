package serve

import (
	"net/http"
	"net/http/pprof"
)

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
