package obs

import (
	"strconv"
	"sync"
	"time"
)

// Recorder is the handle the optimizer loops thread through their
// configs. A nil *Recorder is valid and means "observability off":
// every method nil-checks and returns, costing one predicted branch on
// the hot path and zero allocations (see recorder_test.go).
type Recorder struct {
	reg   *Registry
	sink  Sink
	start time.Time

	iterations *Counter
	utility    *Gauge
	cost       *Gauge
	feasible   *Gauge
	messages   *Counter
	backtracks *Counter
	eta        *Gauge
	workers    *Gauge
	diverged   *Counter

	srvGeneration *Gauge
	srvUtility    *Gauge
	srvWarm       *Counter
	srvCold       *Counter

	flipAdmitted *Counter
	flipRejected *Counter

	lgEpochs    *Counter
	lgMutations *Counter

	// stages caches streamopt_stage_seconds by span name (string →
	// *Histogram), so observing a span costs no registry lookup.
	stages sync.Map
}

// NewRecorder builds an enabled recorder. reg may be nil (a fresh
// registry is created); sink may be nil (metrics only, no events).
func NewRecorder(reg *Registry, sink Sink) *Recorder {
	if reg == nil {
		reg = NewRegistry()
	}
	r := &Recorder{reg: reg, sink: sink, start: time.Now()}
	r.iterations = reg.Counter("streamopt_iterations_total", "Optimizer iterations executed.")
	r.utility = reg.Gauge("streamopt_utility", "Total utility at the latest iteration.")
	r.cost = reg.Gauge("streamopt_cost", "Cost A = Y + epsilon*D at the latest iteration.")
	r.feasible = reg.Gauge("streamopt_feasible", "1 when the latest iterate satisfies every capacity constraint.")
	r.messages = reg.Counter("streamopt_protocol_messages_total", "Protocol messages exchanged.")
	r.backtracks = reg.Counter("streamopt_adaptive_backtracks_total", "Adaptive step-size rollbacks.")
	r.eta = reg.Gauge("streamopt_eta", "Current gradient step scale.")
	r.workers = reg.Gauge("streamopt_step_workers", "Worker-pool bound for the per-commodity Step waves.")
	r.diverged = reg.Counter("streamopt_divergence_total", "Trajectories declared diverged.")
	r.srvGeneration = reg.Gauge("streamopt_server_generation", "Latest published admission-server snapshot generation.")
	r.srvUtility = reg.Gauge("streamopt_server_utility", "Total utility of the latest published snapshot.")
	r.srvWarm = reg.Counter("streamopt_server_solves_total", "Admission-server re-solves by start kind.", "start", "warm")
	r.srvCold = reg.Counter("streamopt_server_solves_total", "Admission-server re-solves by start kind.", "start", "cold")
	r.flipAdmitted = reg.Counter("streamopt_admission_flips_total",
		"Commodities crossing the admitted/rejected boundary between generations.", "to", "admitted")
	r.flipRejected = reg.Counter("streamopt_admission_flips_total",
		"Commodities crossing the admitted/rejected boundary between generations.", "to", "rejected")
	r.lgEpochs = reg.Counter("streamopt_loadgen_epochs_total", "Load-generator virtual-clock epochs driven.")
	r.lgMutations = reg.Counter("streamopt_loadgen_mutations_total", "Mutations applied by the load-generator driver.")
	if dr, ok := sink.(dropReporting); ok {
		dr.SetDropCounter(reg.Counter("streamopt_events_dropped_total",
			"Events lost to sink write errors."))
	}
	return r
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

var (
	ptrue  = new(bool)
	pfalse = new(bool)
)

func init() { *ptrue = true }

// Iteration records one optimizer iteration. admitted goes to the event
// sink only (read synchronously, not retained): per-commodity rates are
// not metric series.
func (r *Recorder) Iteration(alg string, iter int, utility, cost float64, admitted []float64, feasible bool) {
	if r == nil {
		return
	}
	r.iterations.Inc()
	r.utility.Set(utility)
	r.cost.Set(cost)
	fp := pfalse
	fv := 0.0
	if feasible {
		fp, fv = ptrue, 1
	}
	r.feasible.Set(fv)
	r.emit(Event{
		Type: EventIteration, Alg: alg, Iter: iter,
		Utility: utility, Cost: cost, Admitted: admitted, Feasible: fp,
	})
}

// Protocol records the distributed message cost of one iteration.
func (r *Recorder) Protocol(alg string, iter, messages, rounds int) {
	if r == nil {
		return
	}
	r.messages.Add(messages)
	r.emit(Event{Type: EventProtocol, Alg: alg, Iter: iter, Messages: messages, Rounds: rounds})
}

// Blocking records loop-freedom tagging activity; an iteration that
// tagged nothing emits no event, to keep files small.
func (r *Recorder) Blocking(alg string, iter, tagged int) {
	if r == nil || tagged == 0 {
		return
	}
	r.emit(Event{Type: EventBlocking, Alg: alg, Iter: iter, Tagged: tagged})
}

// Divergence records a trajectory declared diverged.
func (r *Recorder) Divergence(alg string, iter int, reason string) {
	if r == nil {
		return
	}
	r.diverged.Inc()
	r.emit(Event{Type: EventDivergence, Alg: alg, Iter: iter, Reason: reason})
}

// SetEta publishes the adaptive controller's current step scale.
func (r *Recorder) SetEta(eta float64) {
	if r == nil {
		return
	}
	r.eta.Set(eta)
}

// SetWorkers publishes the engine's per-commodity wave worker bound.
func (r *Recorder) SetWorkers(n int) {
	if r == nil {
		return
	}
	r.workers.Set(float64(n))
}

// Backtrack counts one adaptive step rollback.
func (r *Recorder) Backtrack() {
	if r == nil {
		return
	}
	r.backtracks.Inc()
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
	start := "cold"
	if warm {
		start = "warm"
		r.srvWarm.Inc()
	} else {
		r.srvCold.Inc()
	}
	r.srvGeneration.Set(float64(generation))
	r.srvUtility.Set(utility)
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
	to := "rejected"
	if admitted {
		to = "admitted"
		r.flipAdmitted.Inc()
	} else {
		r.flipRejected.Inc()
	}
	r.emit(Event{
		Type: EventAdmissionFlip, Alg: "server", Generation: generation,
		Commodity: commodity, Rate: rate, To: to, Trace: traceID,
	})
}

// ShardAdvance records one solver shard's state after its turn:
// cumulative solve seconds and iterations for the current solve,
// the commodity count it owns, and — when the shard actually stepped —
// its advance counter. The last-exchange timestamp feeds streamtop's
// staleness column.
func (r *Recorder) ShardAdvance(shard int, seconds float64, iterations, commodities int, stepped bool, unixSeconds float64) {
	if r == nil {
		return
	}
	label := strconv.Itoa(shard)
	if stepped {
		r.reg.Counter("streamopt_shard_solves_total",
			"Turns in which this shard advanced its gradient engine.",
			"shard", label).Inc()
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
	r.reg.Gauge("streamopt_shard_last_exchange_unix",
		"Unix time of this shard's latest turn.",
		"shard", label).Set(unixSeconds)
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
// which every shard took a turn: the shard count and the largest exact
// external-usage update (relative to capacity scale) the sweep
// installed.
func (r *Recorder) PriceExchange(shards int, maxDelta float64) {
	if r == nil {
		return
	}
	r.reg.Gauge("streamopt_shard_count",
		"Solver shards the admission service is partitioned across.").Set(float64(shards))
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

// LoadgenEpoch records one virtual-clock epoch of a load-generator run:
// how many commodities are active, the total offered load, how many
// mutations the epoch applied, the driver's sync latency (epoch start
// to a published snapshot incorporating the epoch; negative when the
// epoch did not sync, and then left out of the event), and the
// snapshot utility and admitted fraction observed at epoch end (NaN
// admitted fraction is skipped — no snapshot yet).
func (r *Recorder) LoadgenEpoch(epoch, active, mutations int, offered, seconds, utility, admittedFrac float64) {
	if r == nil {
		return
	}
	r.lgEpochs.Inc()
	r.lgMutations.Add(mutations)
	r.emit(Event{
		Type: EventLoadgenEpoch, Alg: "loadgen", Epoch: epoch,
		Active: active, Mutations: mutations, Offered: offered,
		Seconds: max(seconds, 0), Utility: utility, AdmittedFrac: admittedFrac,
	})
}

// LoadgenSummary records the end-of-run load-generator report.
func (r *Recorder) LoadgenSummary(epochs, mutations int, seconds, mutPerSec float64) {
	if r == nil {
		return
	}
	r.emit(Event{
		Type: EventLoadgenSummary, Alg: "loadgen", Epoch: epochs,
		Mutations: mutations, Seconds: seconds, MutPerSec: mutPerSec,
	})
}

// SaturationPoint records one offered-load sweep point from the
// saturation analyzer: the scenario scale factor, the mean offered
// load it produced, and the achieved utility, admitted fraction, and
// decision-latency stats measured there.
func (r *Recorder) SaturationPoint(scale, offered, utility, admittedFrac, meanLatency, p95Latency float64) {
	if r == nil {
		return
	}
	r.emit(Event{
		Type: EventSaturationPoint, Alg: "loadgen", Scale: scale,
		Offered: offered, Utility: utility, AdmittedFrac: admittedFrac,
		Seconds: meanLatency, P95Seconds: p95Latency,
	})
}
