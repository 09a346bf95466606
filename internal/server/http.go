package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/stream"
)

// Handler returns the service's HTTP API. Reads are served lock-free
// from the latest snapshot; writes apply to the next problem version
// and only commit on success. When reg is non-nil the obs exposition
// endpoints (/metrics, /debug/vars, /debug/pprof) are mounted on the
// same mux.
//
// Every request passes through the metrics middleware: per-route
// streamopt_http_requests_total{route,code} and latency histograms,
// plus a structured request-log event (method/path/status/duration/
// trace ID) through the recorder's sink. Mutation routes honor the W3C
// `traceparent` header: when span tracing is on (Options.Spans), the
// accepted mutation's decision trace continues the client's trace, and
// the full ingress→coalesce→solve→publish tree is queryable on
// GET /debug/spans?trace=<id>.
//
//	GET    /healthz                        liveness (alias /v1/healthz)
//	GET    /readyz                         readiness: 200 once the first snapshot published
//	GET    /v1/snapshot                    full converged snapshot
//	GET    /v1/admitted                    per-commodity admitted rates
//	GET    /v1/usage                       per-server/link utilization
//	GET    /v1/flips                       admitted↔rejected transitions of the retained generations
//	GET    /v1/problem                     current problem (schema JSON)
//	GET    /explain?commodity=NAME|IDX     bottleneck attribution (all when omitted)
//	GET    /history                        generation-over-generation diffs (since/limit filters)
//	GET    /debug/spans                    decision-lifecycle spans (trace/commodity/min_ms filters)
//	GET    /debug/bundles                  anomaly-capture diagnostics bundles (404 when capture is off)
//	POST   /v1/commodities                 admit a commodity (schema JSON)
//	DELETE /v1/commodities/{name}          remove a commodity
//	PATCH  /v1/commodities/{name}          {"maxRate": λ} and/or {"utility": {...}}
//	POST   /v1/rates                       {"rates": {name: λ, ...}} batch update, one re-solve
//	POST   /v1/nodes/{name}/capacity       {"capacity": C} or {"scale": f}
//	POST   /v1/links/{from}/{to}/bandwidth {"bandwidth": B} or {"scale": f}
func (s *Server) Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	if reg != nil {
		obs.Attach(mux, reg)
	}
	span.Attach(mux, s.opts.Spans) // serves 404 when tracing is off

	healthz := func(w http.ResponseWriter, _ *http.Request) {
		var gen int64
		if snap := s.Snapshot(); snap != nil {
			gen = snap.Generation
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "generation": gen, "rev": s.Rev()})
	}
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /v1/healthz", healthz)

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		snap := s.Snapshot()
		if snap == nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "generation": snap.Generation})
	})

	mux.HandleFunc("GET /v1/flips", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"flips": s.Flips()})
	})

	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		snap := s.Snapshot()
		if snap == nil {
			writeError(w, http.StatusServiceUnavailable, errors.New("no snapshot yet"))
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	mux.HandleFunc("GET /v1/admitted", func(w http.ResponseWriter, _ *http.Request) {
		snap := s.Snapshot()
		if snap == nil {
			writeError(w, http.StatusServiceUnavailable, errors.New("no snapshot yet"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"generation":  snap.Generation,
			"utility":     snap.Utility,
			"commodities": snap.Commodities,
		})
	})

	mux.HandleFunc("GET /v1/usage", func(w http.ResponseWriter, _ *http.Request) {
		snap := s.Snapshot()
		if snap == nil {
			writeError(w, http.StatusServiceUnavailable, errors.New("no snapshot yet"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"generation": snap.Generation,
			"feasible":   snap.Feasible,
			"usage":      snap.Usage,
		})
	})

	mux.HandleFunc("GET /explain", func(w http.ResponseWriter, r *http.Request) {
		snap := s.Snapshot()
		if snap == nil {
			writeError(w, http.StatusServiceUnavailable, errors.New("no snapshot yet"))
			return
		}
		q := r.URL.Query().Get("commodity")
		if q == "" {
			writeJSON(w, http.StatusOK, map[string]any{
				"generation": snap.Generation,
				"explain":    snap.Explain,
			})
			return
		}
		idx, idxErr := strconv.Atoi(q)
		for j, ce := range snap.Explain {
			if ce.Name == q || (idxErr == nil && j == idx) {
				writeJSON(w, http.StatusOK, map[string]any{
					"generation": snap.Generation,
					"explain":    ce,
				})
				return
			}
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown commodity %q", q))
	})

	mux.HandleFunc("GET /history", func(w http.ResponseWriter, r *http.Request) {
		// Malformed or unknown filters are client errors, not silently
		// ignored: a typo'd ?sinse=40 must not quietly return everything.
		since, limit := int64(0), -1
		for key, vals := range r.URL.Query() {
			val := vals[len(vals)-1]
			switch key {
			case "since":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 0 {
					writeError(w, http.StatusBadRequest, fmt.Errorf("invalid since %q: want a non-negative generation", val))
					return
				}
				since = n
			case "limit":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					writeError(w, http.StatusBadRequest, fmt.Errorf("invalid limit %q: want a non-negative count", val))
					return
				}
				limit = n
			default:
				writeError(w, http.StatusBadRequest, fmt.Errorf("unknown query parameter %q (want since, limit)", key))
				return
			}
		}
		entries := s.historyDiffs()
		if since > 0 {
			cut := 0
			for cut < len(entries) && entries[cut].Generation < since {
				cut++
			}
			entries = entries[cut:]
		}
		if limit >= 0 && len(entries) > limit {
			// Keep the newest entries: the tail is what a poller wants.
			entries = entries[len(entries)-limit:]
		}
		writeJSON(w, http.StatusOK, map[string]any{"generations": entries})
	})

	mux.HandleFunc("GET /debug/bundles", func(w http.ResponseWriter, _ *http.Request) {
		if s.opts.CaptureDir == "" {
			writeError(w, http.StatusNotFound, errors.New("capture not enabled (Options.CaptureDir)"))
			return
		}
		bundles, err := s.Bundles()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dir": s.opts.CaptureDir, "bundles": bundles})
	})

	mux.HandleFunc("GET /v1/problem", func(w http.ResponseWriter, _ *http.Request) {
		data, err := s.ProblemJSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	})

	mux.HandleFunc("POST /v1/commodities", func(w http.ResponseWriter, r *http.Request) {
		if body, err := readBody(w, r); err == nil {
			s.commit(w, r, http.StatusCreated, nil, journal.AddCommodity(body))
		}
	})

	mux.HandleFunc("DELETE /v1/commodities/{name}", func(w http.ResponseWriter, r *http.Request) {
		s.commit(w, r, http.StatusOK, nil, journal.RemoveCommodity(r.PathValue("name")))
	})

	mux.HandleFunc("PATCH /v1/commodities/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		var patch struct {
			MaxRate *float64        `json:"maxRate"`
			Utility json.RawMessage `json:"utility"`
		}
		if !decodeBody(w, r, &patch) {
			return
		}
		// Both fields commit together or not at all.
		var ms []journal.Mutation
		if patch.MaxRate != nil {
			ms = append(ms, journal.SetRate(name, *patch.MaxRate))
		}
		if patch.Utility != nil {
			ms = append(ms, journal.SetUtility(name, patch.Utility))
		}
		if len(ms) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("patch must set maxRate and/or utility"))
			return
		}
		s.commit(w, r, http.StatusOK, nil, ms...)
	})

	mux.HandleFunc("POST /v1/rates", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			Rates map[string]float64 `json:"rates"`
		}
		if !decodeBody(w, r, &in) {
			return
		}
		s.commit(w, r, http.StatusOK, map[string]any{"applied": len(in.Rates)}, journal.SetRates(in.Rates))
	})

	mux.HandleFunc("POST /v1/nodes/{name}/capacity", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		abs, scale, ok := parseResize(w, r)
		if !ok {
			return
		}
		m := journal.SetCapacity(name, abs)
		if scale != 0 {
			m = journal.ScaleCapacity(name, scale)
		}
		s.commit(w, r, http.StatusOK, nil, m)
	})

	mux.HandleFunc("POST /v1/links/{from}/{to}/bandwidth", func(w http.ResponseWriter, r *http.Request) {
		from, to := r.PathValue("from"), r.PathValue("to")
		abs, scale, ok := parseResize(w, r)
		if !ok {
			return
		}
		m := journal.SetBandwidth(from, to, abs)
		if scale != 0 {
			m = journal.ScaleBandwidth(from, to, scale)
		}
		s.commit(w, r, http.StatusOK, nil, m)
	})

	return s.instrument(mux)
}

// commit is how every mutation route writes: the mutations its body
// decoded to go through mutate as one all-or-nothing group under the
// request's ingress, and the answer is {"rev": …} (plus the route's
// extra reply fields) with the given status, or the error envelope.
func (s *Server) commit(w http.ResponseWriter, r *http.Request, status int, reply map[string]any, ms ...journal.Mutation) {
	rev, err := s.mutate(ingressFrom(r), ms...)
	if err != nil {
		writeError(w, statusForMutation(err), err)
		return
	}
	if reply == nil {
		reply = map[string]any{}
	}
	reply["rev"] = rev
	writeJSON(w, status, reply)
}

// ingressKey carries the request's ingress through the context from the
// instrumentation middleware (which parses traceparent and stamps the
// arrival time once) to the mutation handlers.
type ingressKey struct{}

// ingressFrom recovers the ingress stashed by the middleware; a handler
// invoked outside instrument (e.g. straight from a test mux) degrades
// to an untraced ingress stamped now.
func ingressFrom(r *http.Request) ingress {
	if ing, ok := r.Context().Value(ingressKey{}).(ingress); ok {
		return ing
	}
	return ingress{at: time.Now()}
}

// statusWriter captures the response code for the request metrics;
// handlers that never call WriteHeader implicitly answer 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps the API mux with the observability middleware: it
// parses the W3C traceparent header once and stashes the resulting
// ingress in the request context, then records per-route request
// counters and latency histograms (streamopt_http_requests_total,
// streamopt_http_request_seconds) and emits one http_request event per
// served request through the recorder's sink. The route label is the
// mux pattern (e.g. "PATCH /v1/commodities/{name}"), not the raw path,
// so label cardinality stays bounded.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ing := ingress{at: start}
		if tp := r.Header.Get("traceparent"); tp != "" {
			if tc, err := span.ParseTraceparent(tp); err == nil {
				ing.tc = tc
			}
		}
		r = r.WithContext(context.WithValue(r.Context(), ingressKey{}, ing))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		mux.ServeHTTP(sw, r)
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		s.opts.Recorder.HTTPRequest(route, r.Method, r.URL.Path, sw.code,
			time.Since(start).Seconds(), ing.tc.TraceHex())
	})
}

// Serve binds addr and serves Handler(reg) until the returned
// HTTPServer is closed. Use addr ":0" to let the kernel pick a port.
func (s *Server) Serve(addr string, reg *obs.Registry) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &HTTPServer{ln: ln, http: &http.Server{Handler: s.Handler(reg)}}
	go func() { _ = h.http.Serve(ln) }()
	return h, nil
}

// HTTPServer is one bound listener serving the admission API.
type HTTPServer struct {
	ln   net.Listener
	http *http.Server
}

// Addr reports the bound address (useful with ":0").
func (h *HTTPServer) Addr() string { return h.ln.Addr().String() }

// Close stops the listener and open connections.
func (h *HTTPServer) Close() error { return h.http.Close() }

// resize payload shared by the capacity and bandwidth endpoints:
// exactly one of an absolute value or a multiplicative scale (the E8
// failure-injection idiom, e.g. {"scale": 0.25} cuts to a quarter).
func parseResize(w http.ResponseWriter, r *http.Request) (abs, scale float64, ok bool) {
	var in struct {
		Capacity  float64 `json:"capacity"`
		Bandwidth float64 `json:"bandwidth"`
		Scale     float64 `json:"scale"`
	}
	if !decodeBody(w, r, &in) {
		return 0, 0, false
	}
	abs = in.Capacity
	if in.Bandwidth != 0 {
		abs = in.Bandwidth
	}
	if (abs != 0) == (in.Scale != 0) {
		writeError(w, http.StatusBadRequest,
			errors.New("set exactly one of capacity/bandwidth or scale"))
		return 0, 0, false
	}
	return abs, in.Scale, true
}

const maxBodyBytes = 1 << 20

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, err
	}
	return body, nil
}

// decodeBody reads the request body as JSON into v, answering 400
// itself when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := readBody(w, r)
	if err == nil {
		if err = json.Unmarshal(body, v); err != nil {
			writeError(w, http.StatusBadRequest, err)
		}
	}
	return err == nil
}

// HistoryEntry is one retained generation in the GET /history response,
// with its deltas against the previous retained generation: how much
// total utility and each commodity's admitted rate moved when the
// snapshot was republished. A commodity arriving (departing) between
// generations shows its full (negated) rate as the delta.
type HistoryEntry struct {
	Generation   int64   `json:"generation"`
	Rev          int64   `json:"rev"`
	Warm         bool    `json:"warm"`
	Iterations   int     `json:"iterations"`
	SolveSeconds float64 `json:"solveSeconds"`
	Utility      float64 `json:"utility"`
	DeltaUtility float64 `json:"deltaUtility"`
	// Admitted maps commodity name to admitted rate at this generation;
	// DeltaAdmitted to the change since the previous retained one.
	Admitted      map[string]float64 `json:"admitted"`
	DeltaAdmitted map[string]float64 `json:"deltaAdmitted,omitempty"`
}

// historyDiffs renders the generation ring as generation-over-generation
// diffs, oldest first.
func (s *Server) historyDiffs() []HistoryEntry {
	gens := s.History()
	out := make([]HistoryEntry, 0, len(gens))
	var prev *GenerationRecord
	for i := range gens {
		g := &gens[i]
		e := HistoryEntry{
			Generation:   g.Generation,
			Rev:          g.Rev,
			Warm:         g.Warm,
			Iterations:   g.Iterations,
			SolveSeconds: g.SolveSeconds,
			Utility:      g.Utility,
			Admitted:     make(map[string]float64, len(g.Commodities)),
		}
		for _, c := range g.Commodities {
			e.Admitted[c.Name] = c.Admitted
		}
		if prev != nil {
			e.DeltaUtility = g.Utility - prev.Utility
			e.DeltaAdmitted = make(map[string]float64, len(e.Admitted))
			for name, rate := range e.Admitted {
				e.DeltaAdmitted[name] = rate
			}
			for _, c := range prev.Commodities {
				e.DeltaAdmitted[c.Name] -= c.Admitted
			}
		}
		out = append(out, e)
		prev = g
	}
	return out
}

// statusForMutation maps a rejected mutation to its HTTP status:
// targets that do not exist (commodities, nodes, links) → 404, duplicate
// names and already-claimed sinks → 409, every other validation failure
// → 400.
func statusForMutation(err error) int {
	switch {
	case errors.Is(err, stream.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, stream.ErrConflict):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// apiError is the uniform error envelope every endpoint returns:
// {"error": {"code": "...", "message": "..."}}. Code is a stable
// machine-readable slug derived from the HTTP status; message is the
// human-readable cause.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorCode maps an HTTP status to the envelope's stable code slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_argument"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]apiError{"error": {Code: errorCode(status), Message: err.Error()}})
}
