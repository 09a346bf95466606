package main

import (
	"fmt"
	"io"
)

// metricDef names one reported number. BENCHMARK.json at the repo root
// lists the same names, units, directions and bounds; a test holds the
// two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd metrics come from the untraced run, the same nine on every
// workload.
//
// The wall-clock bounds are the widest the contract allows. On the
// shared 2-vCPU box the host slows whole runs down for minutes at a
// time: over ten seeds decision_p50_ms spread 2–9 % in a quiet hour and
// 9–25 % in a busy one, and a bound a metric's own spread exceeds gates
// nothing. The others are bound at three to four times the widest
// spread ten seeds showed (README.md has the table).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"decision_p50_ms", "ms", "lower", 0.25},
	{"ack_p10_ms", "ms", "lower", 0.25},
	{"mutations_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_decision", "MB", "lower", 0.04},
	{"live_heap_mb", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.20},
	// One snapshot turning infeasible moves the share by far more than
	// 0.1 %, so this bound means "may not drop".
	{"feasible_share", "share", "higher", 0.001},
	{"utility_mean", "utility", "higher", 0.04},
}

// perLayer metrics come from the traced run and carry no bound.
var perLayer = []metricDef{
	{name: "gradient.step_us", unit: "us", better: "lower"},
	{name: "gradient.step_allocs", unit: "count", better: "lower"},
	{name: "gradient.stationarity_ms", unit: "ms", better: "lower"},
	{name: "gradient.init_warm_ms", unit: "ms", better: "lower"},
	{name: "gradient.init_cold_ms", unit: "ms", better: "lower"},
	{name: "gradient.iterations_per_decision", unit: "count", better: "lower"},
	{name: "gradient.converged_share", unit: "share", better: "higher"},
	{name: "server.coalesce_ms", unit: "ms", better: "lower"},
	{name: "server.ingress_ms", unit: "ms", better: "lower"},
	{name: "server.build_ms", unit: "ms", better: "lower"},
	{name: "server.engine_init_ms", unit: "ms", better: "lower"},
	{name: "server.iterate_ms", unit: "ms", better: "lower"},
	{name: "server.publish_ms", unit: "ms", better: "lower"},
	{name: "server.solve_ms", unit: "ms", better: "lower"},
	{name: "server.residue_ms", unit: "ms", better: "lower"},
	{name: "server.decision_p95_ms", unit: "ms", better: "lower"},
	{name: "server.warm_share", unit: "share", better: "higher"},
	{name: "server.coalesced_per_solve", unit: "count", better: "higher"},
	{name: "server.batch_ack_ms", unit: "ms", better: "lower"},
	{name: "server.diff_flips_ms", unit: "ms", better: "lower"},
	{name: "stream.clone_ms", unit: "ms", better: "lower"},
	{name: "stream.clone_alloc_kb", unit: "KB", better: "lower"},
	{name: "stream.validate_ms", unit: "ms", better: "lower"},
	{name: "stream.marshal_ms", unit: "ms", better: "lower"},
	{name: "transform.build_ms", unit: "ms", better: "lower"},
	{name: "transform.build_alloc_mb", unit: "MB", better: "lower"},
	{name: "transform.build_bytes", unit: "B", better: "lower"},
	{name: "flow.evaluate_ms", unit: "ms", better: "lower"},
	{name: "core.usage_report_ms", unit: "ms", better: "lower"},
	{name: "core.explain_ms", unit: "ms", better: "lower"},
	{name: "shard.apply_one_ms", unit: "ms", better: "lower"},
	{name: "shard.apply_all_ms", unit: "ms", better: "lower"},
	{name: "shard.solve_ms", unit: "ms", better: "lower"},
	{name: "shard.rounds_per_decision", unit: "count", better: "lower"},
	{name: "shard.iterations_per_decision", unit: "count", better: "lower"},
	{name: "journal.append_us", unit: "us", better: "lower"},
	{name: "journal.digest_us", unit: "us", better: "lower"},
	{name: "journal.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "journal.bytes_per_mutation", unit: "B", better: "lower"},
	{name: "http.roundtrip_ms", unit: "ms", better: "lower"},
	{name: "http.snapshot_get_ms", unit: "ms", better: "lower"},
	{name: "runtime.cpu_s_per_decision", unit: "s", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.mallocs_per_decision", unit: "count", better: "lower"},
	{name: "obs.tracing_overhead_pct", unit: "%", better: "lower"},
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEndDefs
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEndDefs, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result. Its exported fields are exactly the
// object the driver reads from the last line of standard output.
type outcome struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`

	notes []string // failed ops and failed output checks, for people
	pass  *phase   // the untraced pass the stamp describes
}

// newOutcome sums the passes' op counts; the run is correct while no op
// failed and no output check calls mismatch.
func newOutcome(passes ...*phase) *outcome {
	o := &outcome{Correct: true, Metrics: map[string]reading{}}
	for _, ph := range passes {
		o.Attempted += ph.attempted
		o.Failed += ph.failed
		for _, f := range ph.failures {
			o.notes = append(o.notes, "failed op: "+f)
		}
	}
	o.Correct = o.Failed == 0
	return o
}

func (o *outcome) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " has no definition in report.go")
	}
	o.Metrics[name] = reading{Value: v, Unit: unit}
}

// mismatch records a failed output check.
func (o *outcome) mismatch(format string, args ...any) {
	o.Correct = false
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// print lists the run's metrics by name with their units, in definition
// order, then whatever went wrong.
func (o *outcome) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if r, ok := o.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, r.Value, r.Unit)
		}
	}
	fmt.Fprintf(w, "  %-34s %14d\n", "attempted_ops", o.Attempted)
	fmt.Fprintf(w, "  %-34s %14d\n", "failed_ops", o.Failed)
	for _, n := range o.notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}
