package span

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Attach mounts the span exposition on an existing mux, the way
// obs.Attach mounts /metrics:
//
//	GET /debug/spans                 all retained spans, oldest first
//	  ?trace=<32 hex>                one decision lifecycle's span tree
//	  ?name=<span name>              e.g. name=solve
//	  ?target=<target>               spans whose target attribute is this
//	                                 commodity, node or from->to link
//	  ?min_ms=<float>                spans at least this long
//
// The response is {"capacity","retained","started","finished","spans"}.
// A span tree is reassembled client-side from the parent links: every
// span of one trace shares the trace ID, and Parent names the span it
// hangs under.
func Attach(mux *http.ServeMux, t *Tracer) {
	mux.HandleFunc("GET /debug/spans", Handler(t))
}

// isTraceHex reports whether s is a 32-character lowercase-hex trace
// ID — the only spelling TraceHex produces, so anything else can never
// match and is a client error.
func isTraceHex(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Handler returns the GET /debug/spans handler for mounting on muxes
// that cannot use Attach. A nil tracer serves 404. Malformed or unknown
// query parameters are rejected with 400 rather than silently matching
// nothing.
func Handler(t *Tracer) http.HandlerFunc {
	// Errors use the admission API's uniform envelope:
	// {"error": {"code": ..., "message": ...}}.
	writeErr := func(w http.ResponseWriter, status int, code, msg string) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(map[string]map[string]string{
			"error": {"code": code, "message": msg},
		})
	}
	badRequest := func(w http.ResponseWriter, msg string) {
		writeErr(w, http.StatusBadRequest, "invalid_argument", msg)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			writeErr(w, http.StatusNotFound, "not_found", "span tracing not enabled")
			return
		}
		q := r.URL.Query()
		for key := range q {
			switch key {
			case "trace", "name", "target", "min_ms":
			default:
				badRequest(w, "unknown query parameter "+strconv.Quote(key)+
					" (want trace, name, target, min_ms)")
				return
			}
		}
		f := Filter{
			Trace: q.Get("trace"),
			Name:  q.Get("name"),
		}
		if f.Trace != "" && !isTraceHex(f.Trace) {
			badRequest(w, "trace must be 32 lowercase hex characters")
			return
		}
		if c := q.Get("target"); c != "" {
			f.AttrKey, f.AttrVal = "target", c
		}
		if ms := q.Get("min_ms"); ms != "" {
			v, err := strconv.ParseFloat(ms, 64)
			if err != nil || v < 0 {
				badRequest(w, "min_ms must be a non-negative number")
				return
			}
			f.MinDuration = time.Duration(v * float64(time.Millisecond))
		}
		started, finished := t.Stats()
		spans := t.Spans(f)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"capacity": t.Cap(),
			"retained": t.Len(),
			"started":  started,
			"finished": finished,
			"spans":    spans,
		})
	}
}
