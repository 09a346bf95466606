package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/journal"
	"repro/internal/obs/span"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/transform"
)

// samples collects per-layer readings by metric name; the report takes
// each metric's median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// timed records how long f took, in ms.
func (s samples) timed(name string, f func()) {
	t0 := time.Now()
	f()
	s.add(name, ms(time.Since(t0)))
}

// allocated runs f and returns the bytes and objects it allocated. Only
// meaningful while nothing else in the process allocates.
func allocated(f func()) (bytes, objects uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

// selfTime is a span's duration minus the part its children cover.
// Children are clipped to the parent: the server ends a decision's root
// span a few microseconds before the publish span under it, so the raw
// sum can overshoot.
func selfTime(parent float64, children ...float64) float64 {
	covered := 0.0
	for _, c := range children {
		covered += c
	}
	if covered > parent {
		covered = parent
	}
	return parent - covered
}

// decisionTree is one traced decision: its spans' durations in ms and
// their attributes, by span name (decision, ingress, coalesce, solve,
// build, engine_init, iterate, publish).
type decisionTree struct {
	ms    map[string]float64
	attrs map[string]map[string]string
}

// decisionTrees groups finished spans by trace and keeps the traces that
// carry both a decision and the solve it triggered. In a coalesced batch
// that is the first mutation's trace; the boot solve has no decision.
func decisionTrees(spans []span.Span) []decisionTree {
	byTrace := map[string]*decisionTree{}
	var order []string
	for _, sp := range spans {
		t := byTrace[sp.Trace]
		if t == nil {
			t = &decisionTree{ms: map[string]float64{}, attrs: map[string]map[string]string{}}
			byTrace[sp.Trace] = t
			order = append(order, sp.Trace)
		}
		t.ms[sp.Name] = sp.DurationMs
		t.attrs[sp.Name] = sp.Attrs
	}
	var trees []decisionTree
	for _, id := range order {
		t := byTrace[id]
		_, decided := t.ms["decision"]
		_, solved := t.ms["solve"]
		if decided && solved {
			trees = append(trees, *t)
		}
	}
	return trees
}

// attr reads a numeric span attribute; absent or malformed reads 0.
func (t *decisionTree) attr(span, key string) float64 {
	v, _ := strconv.ParseFloat(t.attrs[span][key], 64)
	return v
}

// spanMetrics turns the traced pass's span trees into the server.* and
// shard.rounds_per_decision samples.
func spanMetrics(s samples, trees []decisionTree) {
	warm := 0
	for _, t := range trees {
		for _, name := range []string{"coalesce", "ingress", "build", "engine_init", "iterate", "publish", "solve"} {
			s.add("server."+name+"_ms", t.ms[name])
		}
		// Against the leaf spans, not the solve span: what is left is the
		// part of the solve no child covers (snapshot assembly, mostly).
		s.add("server.residue_ms", selfTime(t.ms["decision"],
			t.ms["ingress"], t.ms["coalesce"], t.ms["build"], t.ms["engine_init"], t.ms["iterate"], t.ms["publish"]))
		s.add("server.coalesced_per_solve", t.attr("solve", "mutations_coalesced"))
		s.add("shard.rounds_per_decision", t.attr("iterate", "rounds"))
		if t.attrs["solve"]["start"] == "warm" {
			warm++
		}
	}
	if len(trees) > 0 {
		s.add("server.warm_share", float64(warm)/float64(len(trees)))
	}
}

// layerRounds is how many times the mirror pass samples the layers,
// spread evenly over the replayed steps.
const layerRounds = 4

// mirrorPass replays the script onto a private copy of the instance —
// no server — and between steps times each layer's public entry points
// on it from outside, the way the server calls them.
func mirrorPass(w *workload, base *stream.Problem, q *script, s samples) error {
	p := base.Clone()
	cfg := gradient.Config{Eta: w.options.Eta, Workers: w.options.Workers}
	var prev *flow.Routing
	stride := (len(q.steps) + layerRounds - 1) / layerRounds
	for i, st := range q.steps {
		for j := range st {
			if err := journal.Apply(p, &st[j].Mutation); err != nil {
				return fmt.Errorf("bench: mirror: %w", err)
			}
		}
		if i%stride != 0 {
			continue
		}
		var c *stream.Problem
		t0 := time.Now()
		bytes, _ := allocated(func() { c = p.Clone() })
		s.add("stream.clone_ms", ms(time.Since(t0)))
		s.add("stream.clone_alloc_kb", float64(bytes)/1024)
		var err error
		s.timed("stream.validate_ms", func() { err = c.Validate() })
		if err != nil {
			return fmt.Errorf("bench: mirror: %w", err)
		}
		s.timed("stream.marshal_ms", func() { _, err = c.MarshalJSON() })
		if err != nil {
			return fmt.Errorf("bench: mirror: %w", err)
		}

		var x *transform.Extended
		t0 = time.Now()
		bytes, _ = allocated(func() { x, err = transform.Build(c, transform.Options{Epsilon: w.options.Epsilon}) })
		if err != nil {
			return fmt.Errorf("bench: mirror: %w", err)
		}
		s.add("transform.build_ms", ms(time.Since(t0)))
		s.add("transform.build_alloc_mb", float64(bytes)/mb)
		s.add("transform.build_bytes", float64(x.BuildBytes()))

		var eng *gradient.Engine
		s.timed("gradient.init_cold_ms", func() { eng = gradient.New(x, cfg) })
		if prev != nil {
			// A topology change (churn's depart/arrive) refuses the warm
			// start, as it does in the server; that round has no sample.
			t0 = time.Now()
			if warm, err := gradient.NewFrom(x, prev, cfg); err == nil {
				s.add("gradient.init_warm_ms", ms(time.Since(t0)))
				eng = warm
			}
		}
		const steps = 100
		t0 = time.Now()
		_, objects := allocated(func() {
			for k := 0; k < steps; k++ {
				eng.Step()
			}
		})
		s.add("gradient.step_us", ms(time.Since(t0))*1000/steps)
		s.add("gradient.step_allocs", float64(objects)/steps)
		prev = eng.Routing()

		var u *flow.Usage
		s.timed("flow.evaluate_ms", func() { u = flow.Evaluate(prev) })
		s.timed("gradient.stationarity_ms", func() { gradient.CheckStationarity(flow.Evaluate(prev)) })
		s.timed("core.usage_report_ms", func() { core.UsageReport(c, x, u) })
		s.timed("core.explain_ms", func() { core.Explain(c, x, u) })
	}
	if w.options.Shards > 1 {
		return shardPass(w, p, s)
	}
	return nil
}

// shardPass times the coordinator the way the sharded server drives it:
// a cold Apply of every shard and the solve behind it (the boot), then a
// one-commodity rate change applied to its owner shard alone and the
// warm solve that follows.
func shardPass(w *workload, p *stream.Problem, s samples) error {
	o := w.options
	co := shard.New(shard.Config{
		Shards: o.Shards, Salt: o.PlacementSalt,
		Epsilon: o.Epsilon, Eta: o.Eta, MaxIters: o.MaxIters, StationaryTol: o.StationaryTol,
		Workers: o.Workers,
	})
	dirty := make([]bool, o.Shards)
	for i := range dirty {
		dirty[i] = true
	}
	var err error
	s.timed("shard.apply_all_ms", func() { _, err = co.Apply(p, dirty) })
	if err != nil {
		return fmt.Errorf("bench: shard pass: %w", err)
	}
	co.Solve(context.Background())

	c := p.Commodities[0]
	next := p.Clone()
	if err := next.SetMaxRate(c.Name, 0.9*c.MaxRate); err != nil {
		return fmt.Errorf("bench: shard pass: %w", err)
	}
	dirty = make([]bool, o.Shards)
	dirty[shard.Place(c.Name, o.PlacementSalt, o.Shards)] = true
	s.timed("shard.apply_one_ms", func() { _, err = co.Apply(next, dirty) })
	if err != nil {
		return fmt.Errorf("bench: shard pass: %w", err)
	}
	var res shard.Result
	s.timed("shard.solve_ms", func() { res = co.Solve(context.Background()) })
	if res.Err != nil {
		return fmt.Errorf("bench: shard pass: %w", res.Err)
	}
	return nil
}

// journalPass times the flight recorder's pieces on a scratch writer
// with the run's last snapshots and final problem.
func journalPass(t *target, ph *phase, scratch string, s samples) error {
	dir, err := os.MkdirTemp(scratch, "journal-probe-")
	if err != nil {
		return err
	}
	jw, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		return err
	}
	defer jw.Close()
	var flips []server.AdmissionFlip
	for i := 0; i < 32; i++ {
		s.timed("server.diff_flips_ms", func() { flips = server.DiffFlips(ph.prev, ph.last) })
		var d *journal.Digest
		t0 := time.Now()
		d = ph.last.JournalDigest(flips)
		s.add("journal.digest_us", ms(time.Since(t0))*1000)
		rec := journal.Record{
			Kind: journal.KindMutation, Rev: int64(i + 1),
			Mutation: &journal.Mutation{Op: journal.OpSetRate, Target: "S1", Payload: mustJSON(journal.RatePayload{Rate: 1})},
		}
		t0 = time.Now()
		err = jw.Append(rec)
		s.add("journal.append_us", ms(time.Since(t0))*1000)
		if err != nil {
			return err
		}
		if err := jw.Append(journal.Record{Kind: journal.KindDigest, Rev: int64(i + 1), Digest: d}); err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		s.timed("journal.checkpoint_ms", func() {
			var pj []byte
			if pj, err = t.srv.ProblemJSON(); err == nil {
				err = jw.Append(journal.Record{Kind: journal.KindCheckpoint, Rev: 1, Checkpoint: &journal.Checkpoint{Problem: pj}})
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// httpPass measures what the HTTP layer adds. It plays the script's
// next steps in-process against the same server, so http.roundtrip_ms
// compares acks of the same call pattern with and without the HTTP
// layer, and it times fetching the J-sized snapshot.
func httpPass(t *target, next *script, httpAcks []float64, s samples) error {
	direct := *t
	direct.client = inproc{t.srv}
	ph := direct.play(next, len(next.steps))
	if ph.failed > 0 || len(ph.acks) == 0 {
		return fmt.Errorf("bench: in-process comparison pass: %d acks, failures %v", len(ph.acks), ph.failures)
	}
	s.add("http.roundtrip_ms", median(httpAcks)-median(ph.acks))
	for i := 0; i < 8; i++ {
		var err error
		s.timed("http.snapshot_get_ms", func() { _, err = t.hc.do("GET", "/v1/snapshot", nil) })
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedRun is the traced run: the first quarter of the script played
// untraced and then again with decision spans on — the difference is the
// tracing overhead, and the two passes must agree bit for bit — followed
// by the layer passes. It reports every per-layer metric; a layer the
// workload does not use reads 0.
func tracedRun(w *workload, full *script, scratch string) (*outcome, error) {
	q := full.prefix(quarter(full))
	s := samples{}

	plain, _, err := boot(w, scratch, false)
	if err != nil {
		return nil, err
	}
	ref := plain.play(q, len(q.steps))
	plain.close()

	t, _, err := boot(w, scratch, true)
	if err != nil {
		return nil, err
	}
	defer t.close()
	ph := t.play(q, len(q.steps))
	out := newOutcome(ref, ph)
	if ref.trail != ph.trail {
		out.mismatch("untraced and traced passes of one script diverged: trail %s vs %s", ref.trail, ph.trail)
	}
	if len(ph.decisions) == 0 {
		return nil, fmt.Errorf("bench: %s: traced pass made no decision", w.name)
	}
	n := float64(len(ref.decisions))

	// The server publishes a snapshot, which is what play waits for, a
	// moment before it ends that solve's span.
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if started, finished := t.spans.Stats(); started == finished {
			break
		}
	}
	trees := decisionTrees(t.spans.Spans(span.Filter{}))
	if len(trees) != len(ph.decisions) {
		out.mismatch("traced pass made %d decisions but left %d decision→solve span trees", len(ph.decisions), len(trees))
	}
	spanMetrics(s, trees)
	var latencies []float64
	for _, tr := range trees {
		latencies = append(latencies, tr.ms["decision"])
	}
	out.set("server.decision_p95_ms", percentile(latencies, 95))
	out.set("server.batch_ack_ms", median(ref.batchAcks))
	out.set("obs.tracing_overhead_pct", 100*(median(ph.decisions)-median(ref.decisions))/median(ref.decisions))

	out.set("gradient.iterations_per_decision", float64(ref.iterations)/n)
	out.set("gradient.converged_share", float64(ref.converged)/float64(ref.snapshots))
	if w.options.Shards > 1 {
		out.set("shard.iterations_per_decision", float64(ref.iterations)/n)
	}

	out.set("runtime.cpu_s_per_decision", ref.cpu.Seconds()/n)
	out.set("runtime.gc_cycles", float64(ref.mem.NumGC))
	out.set("runtime.gc_pause_ms", float64(ref.mem.PauseTotalNs)/1e6)
	out.set("runtime.mallocs_per_decision", float64(ref.mem.Mallocs)/n)

	if w.http {
		next := &script{steps: full.steps[len(q.steps):min(len(q.steps)+8, len(full.steps))]}
		if err := httpPass(t, next, ref.acks, s); err != nil {
			return nil, err
		}
	}
	if err := journalPass(t, ph, scratch, s); err != nil {
		return nil, err
	}
	if w.journal {
		// Close before reading the journal back: the writer buffers.
		t.close()
		dir := t.journal.Dir()
		size, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		out.set("journal.bytes_per_mutation", float64(size)/float64(ph.calls))
		rep, err := replay.Verify(dir, replay.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: replay: %w", w.name, err)
		}
		for _, m := range rep.Mismatches {
			out.mismatch("replay: %s", m)
		}
		if rep.Digests != len(ph.decisions)+1 {
			out.mismatch("replay verified %d digests, want %d", rep.Digests, len(ph.decisions)+1)
		}
	}
	if err := mirrorPass(w, t.base, q, s); err != nil {
		return nil, err
	}
	for name, vals := range s {
		out.set(name, median(vals))
	}
	for _, m := range perLayer {
		if _, ok := out.Metrics[m.name]; !ok {
			out.set(m.name, 0)
		}
	}
	out.pass = ref
	return out, nil
}
