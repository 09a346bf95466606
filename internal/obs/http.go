package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Server is a live exposition endpoint bound to one registry.
type Server struct {
	ln   net.Listener
	http *http.Server
}

// Attach mounts the exposition endpoints on an existing mux:
//
//	/metrics       Prometheus text format
//	/debug/pprof/  runtime profiles (CPU, heap, mutex, ...)
//
// This is how processes that already own an HTTP listener (the
// admission server) expose the registry without a second port.
func Attach(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Serve starts an HTTP server on addr exposing the Attach endpoints.
// It returns once the listener is bound, so a scrape can't race the
// solve starting; the accept loop runs in a goroutine until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("obs: Serve needs a registry")
	}
	mux := http.NewServeMux()
	Attach(mux, reg)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, http: &http.Server{Handler: mux}}
	go func() { _ = s.http.Serve(ln) }()
	return s, nil
}

// Addr reports the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and open connections.
func (s *Server) Close() error { return s.http.Close() }
