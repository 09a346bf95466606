package obs

import (
	"net/http"
	"net/http/pprof"
)

// Attach mounts the exposition endpoints on an existing mux:
//
//	/metrics       Prometheus text format
//	/debug/pprof/  runtime profiles (CPU, heap, mutex, ...)
//
// The admission server mounts them on its own listener, so the registry
// needs no second port.
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
