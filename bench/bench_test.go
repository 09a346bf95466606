package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs/span"
	"repro/internal/stream"
)

// small swaps a workload's instance for a cheaper one so the smoke tests
// stay quick; everything else about the workload is unchanged.
func small(t *testing.T, name string, instance func() (*stream.Problem, error)) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	if instance != nil {
		c.instance = instance
	}
	if c.coalesced {
		// go test runs other packages' tests beside this one; leave a
		// starved client more room before a burst splits.
		c.options.Debounce = 250 * time.Millisecond
	}
	return &c
}

func mustScript(t *testing.T, w *workload, seed int64, decisions int) (*script, *scriptGen) {
	t.Helper()
	inst, err := w.instance()
	if err != nil {
		t.Fatal(err)
	}
	g := newScriptGen(inst, seed)
	steps, err := w.steps(g, decisions)
	if err != nil {
		t.Fatal(err)
	}
	return finish(steps), g
}

func TestScriptsAreDeterministicAndBounded(t *testing.T) {
	for _, w := range []*workload{
		small(t, "paper-churn", nil),
		small(t, "sparse1k-http-rates", sparse(300)),
		small(t, "sparse1k-burst-journal", sparse(300)),
		small(t, "sparse10k-sharded", sparse(300)),
	} {
		n := 2 * w.period
		a, g := mustScript(t, w, 7, n)
		b, _ := mustScript(t, w, 7, n)
		c, _ := mustScript(t, w, 8, n)
		if a.sha != b.sha {
			t.Errorf("%s: seed 7 hashed %s then %s", w.name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.name)
		}
		if len(a.steps) != n {
			t.Errorf("%s: %d steps, want %d", w.name, len(a.steps), n)
		}
		base := map[string]float64{}
		for i, name := range g.names {
			base[name] = g.lambda[i]
		}
		check := func(name string, rate float64) {
			if lo, hi := 0.5*base[name], 1.5*base[name]; rate < lo || rate > hi {
				t.Errorf("%s: %s rate %v outside [%v,%v]", w.name, name, rate, lo, hi)
			}
		}
		// The mirror replays the canonical form, so it must apply cleanly
		// and agree with the typed values the clients send.
		mirror := g.base.Clone()
		for _, st := range a.steps {
			for i := range st {
				o := &st[i]
				switch o.Op {
				case journal.OpSetRate:
					check(o.Target, o.rate)
				case journal.OpSetRates:
					for name, rate := range o.rates {
						check(name, rate)
					}
				}
				if err := journal.Apply(mirror, &o.Mutation); err != nil {
					t.Fatalf("%s: %s %s does not apply: %v", w.name, o.Op, o.Target, err)
				}
			}
		}
		if g.faulted >= 0 {
			t.Errorf("%s: a whole number of periods left node %s degraded", w.name, g.servers[g.faulted])
		}
		for id, c := range g.base.Net.Capacity {
			if mirror.Net.Capacity[id] != c {
				t.Errorf("%s: node %s ends at capacity %v, generated with %v", w.name, g.base.Net.Names[id], mirror.Net.Capacity[id], c)
			}
		}
		if len(mirror.Commodities) != len(g.base.Commodities) {
			t.Errorf("%s: script ends with %d commodities, instance has %d", w.name, len(mirror.Commodities), len(g.base.Commodities))
		}
	}
}

func TestDecisionsRoundToWholePeriods(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []int{1, runSeconds, 60} {
			n := w.decisions(seconds)
			if n < w.min || n%w.period != 0 {
				t.Errorf("%s: %d s gives %d decisions; want ≥ %d in whole periods of %d", w.name, seconds, n, w.min, w.period)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(ten); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := percentile(ten, 95); math.Abs(got-9.55) > 1e-12 {
		t.Errorf("p95 = %v, want 9.55", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		parent   float64
		children []float64
		want     float64
	}{
		{100, []float64{10, 20, 30}, 40},
		{100, nil, 100},
		{100, []float64{60, 40.003}, 0}, // overshoot clips to the parent
	} {
		got := selfTime(tc.parent, tc.children...)
		if math.Abs(got-tc.want) > 1e-9 || got < 0 || got > tc.parent {
			t.Errorf("selfTime(%v, %v) = %v, want %v within [0, parent]", tc.parent, tc.children, got, tc.want)
		}
	}
}

func TestDecisionTrees(t *testing.T) {
	spans := []span.Span{
		{Trace: "boot", Name: "solve", DurationMs: 50, Attrs: map[string]string{"start": "cold"}},
		{Trace: "a", Name: "ingress", DurationMs: 0.1},
		{Trace: "a", Name: "coalesce", DurationMs: 25},
		{Trace: "b", Name: "ingress", DurationMs: 0.1}, // coalesced sibling: no solve of its own
		{Trace: "b", Name: "coalesce", DurationMs: 24},
		{Trace: "a", Name: "build", DurationMs: 2},
		{Trace: "a", Name: "iterate", DurationMs: 40},
		{Trace: "a", Name: "publish", DurationMs: 1},
		{Trace: "a", Name: "decision", DurationMs: 70},
		{Trace: "b", Name: "decision", DurationMs: 69},
		{Trace: "a", Name: "solve", DurationMs: 44, Attrs: map[string]string{"start": "warm", "mutations_coalesced": "2"}},
	}
	trees := decisionTrees(spans)
	if len(trees) != 1 || trees[0].ms["decision"] != 70 {
		t.Fatalf("trees = %+v, want the one trace with a decision and its solve", trees)
	}
	s := samples{}
	spanMetrics(s, trees)
	if got := s["server.residue_ms"][0]; math.Abs(got-1.9) > 1e-9 {
		t.Errorf("residue = %v, want 1.9 (70 less the six leaf spans)", got)
	}
	if s["server.coalesced_per_solve"][0] != 2 || s["server.warm_share"][0] != 1 {
		t.Errorf("coalesced %v warm %v, want 2 and 1", s["server.coalesced_per_solve"], s["server.warm_share"])
	}
	children := s["server.build_ms"][0] + s["server.engine_init_ms"][0] + s["server.iterate_ms"][0] + s["server.publish_ms"][0]
	if children > s["server.solve_ms"][0] {
		t.Errorf("solve children sum to %v, more than the solve span's %v", children, s["server.solve_ms"][0])
	}
}

// TestSmoke plays every workload at a twentieth of its length (whole
// periods at least) on one boot each, the sparse instances cut to a
// third or a twentieth of their size: no op may fail, which for the
// burst workload includes every round coalescing into exactly one
// generation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four servers")
	}
	for _, w := range []*workload{
		small(t, "paper-churn", nil),
		small(t, "sparse1k-http-rates", sparse(300)),
		small(t, "sparse1k-burst-journal", sparse(300)),
		small(t, "sparse10k-sharded", sparse(500)),
	} {
		n := max(w.decisions(runSeconds)/20, 1)
		n = (n + w.period - 1) / w.period * w.period
		s, _ := mustScript(t, w, 1, n)
		tg, _, err := boot(w, t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		ph := tg.play(s, n)
		tg.close()
		if ph.failed != 0 || len(ph.decisions) != n || ph.calls != s.calls() {
			t.Errorf("%s: %d failed ops %v, %d of %d decisions, %d of %d calls", w.name, ph.failed, ph.failures, len(ph.decisions), n, ph.calls, s.calls())
		}
		if got, want := ph.last.Generation, int64(n+1); w.coalesced && got != want {
			t.Errorf("%s: %d generations for %d rounds, want %d", w.name, got, n, want)
		}
		if len(ph.acks) == 0 {
			t.Errorf("%s: no single-commodity rate call to take an ack from", w.name)
		}
	}
}

// TestTracedRun drives the traced path end to end on cut-down journaled
// bursts: both passes agree, the journal replays clean, and every
// per-layer metric is reported.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and replays a journal")
	}
	w := small(t, "sparse1k-burst-journal", sparse(300))
	s, _ := mustScript(t, w, 1, 4*w.period)
	out, err := tracedRun(w, s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Errorf("traced run incorrect: %d failed, notes %v", out.Failed, out.notes)
	}
	for _, d := range perLayer {
		if _, ok := out.Metrics[d.name]; !ok {
			t.Errorf("traced run reports no %s", d.name)
		}
	}
	for _, name := range []string{"server.coalesced_per_solve", "journal.bytes_per_mutation", "gradient.step_us", "stream.clone_ms"} {
		if out.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on a journaled burst", name, out.Metrics[name].Value)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the definitions in code.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, code says %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q), code says %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, code has %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d is %+v, code says %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, code says %v (bounded=%v)", kind, d.name, g.Bound, d.bound, bounded)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndDefs, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
