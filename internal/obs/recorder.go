package obs

import (
	"strconv"
	"sync"
	"time"
)

// Recorder is the handle the admission server threads through its
// options. A nil *Recorder is valid and means "observability off":
// every method nil-checks and returns, costing one predicted branch and
// zero allocations (see recorder_test.go).
//
// A registry holds only the series its process writes: the server's
// per-generation set is registered at its first write, all of it at
// once, so a counter reads 0 from then until its first increment; later
// writes go through cached pointers.
type Recorder struct {
	reg   *Registry
	sink  Sink
	start time.Time

	serverOnce sync.Once
	server     *serverMetrics

	// stages caches streamopt_stage_seconds by span name (string →
	// *Histogram), so observing a span costs no registry lookup.
	stages sync.Map
}

// serverMetrics is what an admission server writes per published
// generation.
type serverMetrics struct {
	generation   *Gauge
	utility      *Gauge
	warm, cold   *Counter
	flipAdmitted *Counter
	flipRejected *Counter
	divergence   *Counter
}

// NewRecorder builds an enabled recorder. reg may be nil (a fresh
// registry is created); sink may be nil (metrics only, no events).
// It registers nothing but, for a sink that can lose events,
// streamopt_events_dropped_total.
func NewRecorder(reg *Registry, sink Sink) *Recorder {
	if reg == nil {
		reg = NewRegistry()
	}
	if js, ok := sink.(*JSONLSink); ok {
		js.SetDropCounter(reg.Counter("streamopt_events_dropped_total",
			"Events lost to sink write errors."))
	}
	return &Recorder{reg: reg, sink: sink, start: time.Now()}
}

func (r *Recorder) serverSet() *serverMetrics {
	r.serverOnce.Do(func() {
		reg := r.reg
		const solves = "Admission-server re-solves by start kind."
		const flips = "Commodities crossing the admitted/rejected boundary between generations."
		r.server = &serverMetrics{
			generation:   reg.Gauge("streamopt_server_generation", "Latest published admission-server snapshot generation."),
			utility:      reg.Gauge("streamopt_server_utility", "Total utility of the latest published snapshot."),
			warm:         reg.Counter("streamopt_server_solves_total", solves, "start", "warm"),
			cold:         reg.Counter("streamopt_server_solves_total", solves, "start", "cold"),
			flipAdmitted: reg.Counter("streamopt_admission_flips_total", flips, "to", "admitted"),
			flipRejected: reg.Counter("streamopt_admission_flips_total", flips, "to", "rejected"),
			divergence:   reg.Counter("streamopt_divergence_total", "Trajectories declared diverged."),
		}
	})
	return r.server
}

// Registry exposes the underlying registry (nil for a nil recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Close flushes and closes the sink, if any.
func (r *Recorder) Close() error {
	if r == nil || r.sink == nil {
		return nil
	}
	return r.sink.Close()
}

func (r *Recorder) emit(e Event) {
	if r.sink == nil {
		return
	}
	e.TMs = sinceMs(r.start)
	r.sink.Emit(e)
}

// Divergence records a server solve whose trajectory was declared
// diverged after iter iterations.
func (r *Recorder) Divergence(iter int, reason string) {
	if r == nil {
		return
	}
	r.serverSet().divergence.Inc()
	r.emit(Event{Type: EventDivergence, Alg: "server", Iter: iter, Reason: reason})
}

// ServerMutation records one accepted admission-server mutation. kind
// names the operation ("add_commodity", "set_rate", ...); target the
// commodity/node/link it hit.
func (r *Recorder) ServerMutation(kind, target string) {
	if r == nil {
		return
	}
	r.emit(Event{Type: EventServerMutation, Alg: "server", Kind: kind, Target: target})
}

// ServerSolve records one converged admission-server re-solve and the
// snapshot it published.
func (r *Recorder) ServerSolve(generation int64, warm bool, seconds, utility float64, iterations int) {
	if r == nil {
		return
	}
	m := r.serverSet()
	start := "cold"
	if warm {
		start = "warm"
		m.warm.Inc()
	} else {
		m.cold.Inc()
	}
	m.generation.Set(float64(generation))
	m.utility.Set(utility)
	r.emit(Event{
		Type: EventServerSolve, Alg: "server", Iter: iterations,
		Generation: generation, Start: start, Seconds: seconds, Utility: utility,
	})
}

// Span exports one finished decision-lifecycle span: it observes the
// span's duration into streamopt_stage_seconds{stage=<name>} and emits
// it as a JSONL event. It is the span.Emitter implementation a
// span.Tracer is built over, so the span tree is the one source of
// every stage latency the daemon reports, and spans ride the same sink
// (and rotation, and drop accounting) as every other event.
func (r *Recorder) Span(trace, spanID, parent, name string, seconds float64, attrs map[string]string) {
	if r == nil {
		return
	}
	r.stage(name).Observe(seconds)
	r.emit(Event{
		Type: EventSpan, Alg: "server",
		Trace: trace, Span: spanID, Parent: parent, Name: name,
		Seconds: seconds, Attrs: attrs,
	})
}

// stage returns the streamopt_stage_seconds histogram of one span name.
func (r *Recorder) stage(name string) *Histogram {
	if h, ok := r.stages.Load(name); ok {
		return h.(*Histogram)
	}
	h := r.reg.Histogram("streamopt_stage_seconds",
		"Wall-clock time of one decision-lifecycle stage, by span name.",
		DefaultTimeBuckets, "stage", name)
	r.stages.Store(name, h)
	return h
}

// Capture records one anomaly-triggered diagnostics bundle: a counter
// labelled by the trigger reason (slo_breach, cold_fallback,
// divergence) and a structured event naming the bundle directory.
func (r *Recorder) Capture(reason, bundle string) {
	if r == nil {
		return
	}
	r.reg.Counter("streamopt_capture_total",
		"Anomaly-triggered diagnostics bundles written.", "reason", reason).Inc()
	r.emit(Event{Type: EventCapture, Alg: "server", Reason: reason, Name: bundle})
}

// AdmissionFlip records one commodity crossing the admitted↔rejected
// boundary at a published generation, attributed to the triggering
// mutation batch's trace ID (may be empty when untraced).
func (r *Recorder) AdmissionFlip(generation int64, commodity string, admitted bool, rate float64, traceID string) {
	if r == nil {
		return
	}
	m := r.serverSet()
	to := "rejected"
	if admitted {
		to = "admitted"
		m.flipAdmitted.Inc()
	} else {
		m.flipRejected.Inc()
	}
	r.emit(Event{
		Type: EventAdmissionFlip, Alg: "server", Generation: generation,
		Commodity: commodity, Rate: rate, To: to, Trace: traceID,
	})
}

// ShardAdvance records one solver shard's state after its turn:
// cumulative solve seconds and iterations for the current solve, the
// commodity count it owns, and — when the shard actually stepped — its
// advance counter.
func (r *Recorder) ShardAdvance(shard int, seconds float64, iterations, commodities int, stepped bool) {
	if r == nil {
		return
	}
	label := strconv.Itoa(shard)
	solves := r.reg.Counter("streamopt_shard_solves_total",
		"Turns in which this shard advanced its gradient engine.",
		"shard", label)
	if stepped {
		solves.Inc()
	}
	r.reg.Gauge("streamopt_shard_solve_seconds",
		"Wall-clock seconds this shard spent advancing in the current solve.",
		"shard", label).Set(seconds)
	r.reg.Gauge("streamopt_shard_iterations",
		"Gradient iterations this shard ran in the current solve.",
		"shard", label).Set(float64(iterations))
	r.reg.Gauge("streamopt_shard_commodities",
		"Commodities currently placed on this shard.",
		"shard", label).Set(float64(commodities))
}

// BuildFootprint records the resident bytes of a shard's latest
// extended-problem build (transform.Extended.BuildBytes: graph, shared
// tables, and the per-commodity sparse subgraphs). The coordinator calls
// this once per shard rebuild and the per-shard series add up to the
// solver's memory footprint.
func (r *Recorder) BuildFootprint(shard int, bytes int64) {
	if r == nil {
		return
	}
	r.reg.Gauge("streamopt_build_bytes",
		"Bytes held by the latest extended-problem build (sparse per-commodity subgraphs included).",
		"shard", strconv.Itoa(shard)).Set(float64(bytes))
}

// PriceExchange records one completed sweep of the sharded solve, in
// which every shard took a turn: the largest exact external-usage
// update (relative to capacity scale) the sweep installed.
func (r *Recorder) PriceExchange(maxDelta float64) {
	if r == nil {
		return
	}
	r.reg.Counter("streamopt_shard_exchange_rounds_total",
		"Sweeps of shard turns run by the shard coordinator.").Inc()
	r.reg.Gauge("streamopt_shard_price_delta",
		"Largest relative exact external-usage update of the latest sweep of shard turns.").Set(maxDelta)
}

// HTTPRequest records one served admission-API request: the per-route
// counter and latency histogram, plus a structured request-log event
// (method/path/status/duration/trace ID) through the sink.
func (r *Recorder) HTTPRequest(route, method, path string, code int, seconds float64, traceID string) {
	if r == nil {
		return
	}
	r.reg.Counter("streamopt_http_requests_total",
		"Admission-API requests served, by route pattern and status.",
		"route", route, "code", strconv.Itoa(code)).Inc()
	r.reg.Histogram("streamopt_http_request_seconds",
		"Admission-API request latency by route pattern.",
		DefaultTimeBuckets, "route", route).Observe(seconds)
	r.emit(Event{
		Type: EventHTTPRequest, Alg: "server",
		Route: route, Method: method, Path: path, Code: code,
		Seconds: seconds, Trace: traceID,
	})
}
