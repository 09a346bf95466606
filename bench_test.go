// Package repro's root benchmark harness: one bench per reproduced
// table/figure (see DESIGN.md §5 for the experiment index), plus
// per-iteration microbenchmarks of the moving parts. Full paper-scale
// outputs come from `go run ./cmd/experiments`; the benches here use
// reduced budgets so `go test -bench=.` stays in the minutes range.
package repro

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/backpressure"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/journal"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/qsim"
	"repro/internal/randnet"
	"repro/internal/refopt"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

// paperInstance builds the §6 headline instance (40 nodes, 3
// commodities, ε = 0.2). Seed 2 is the repo's reference instance: the
// gradient algorithm reaches 95% of the LP optimum in ≈950 iterations
// there, matching the paper's "about 1000".
func paperInstance(b *testing.B) *transform.Extended {
	b.Helper()
	p, err := randnet.Generate(randnet.Config{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	return x
}

// benchScale trims budgets so a full -bench=. pass stays fast.
func benchScale() experiments.Scale {
	return experiments.Scale{GradIters: 2000, BPIters: 20000, Nodes: 24, Commodities: 2}
}

// --- F4 / T1: Figure 4 convergence (gradient vs back-pressure vs LP) ---

func BenchmarkF4GradientTo95(b *testing.B) {
	x := paperInstance(b)
	ref, err := refopt.Solve(x, refopt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := gradient.New(x, gradient.Config{Eta: 0.04})
		_, hit, err := eng.RunToTarget(ref.Utility, 0.95, 20000)
		if err != nil {
			b.Fatal(err)
		}
		if hit < 0 {
			b.Fatal("gradient never reached 95% of optimal")
		}
		b.ReportMetric(float64(hit), "iters-to-95%")
	}
}

func BenchmarkF4BackPressureTo95(b *testing.B) {
	// Reduced instance: at paper scale back-pressure needs ~1e5
	// iterations (that is the point of Figure 4), which is too slow for
	// a default bench pass; cmd/experiments runs the full version.
	p, err := randnet.Generate(randnet.Config{Seed: 2, Nodes: 24, Commodities: 2})
	if err != nil {
		b.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	ref, err := refopt.Solve(x, refopt.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := backpressure.New(x, backpressure.Config{})
		hit := -1
		for it := 0; it < 120000; it++ {
			if eng.Step().Cumulative >= 0.95*ref.Utility {
				hit = it
				break
			}
		}
		if hit < 0 {
			b.Fatal("back-pressure never reached 95% of optimal")
		}
		b.ReportMetric(float64(hit), "iters-to-95%")
	}
}

func BenchmarkF4ReferenceLP(b *testing.B) {
	x := paperInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refopt.Solve(x, refopt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T2: η sweep ---

func BenchmarkT2EtaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunT2(42, []float64{0.01, 0.04, 0.16}, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T3: protocol rounds vs depth ---

func BenchmarkT3DepthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunT3(3, []int{3, 6, 12}, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T4: ε sweep ---

func BenchmarkT4EpsilonSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunT4(42, []float64{0.5, 0.1}, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: concave utilities ---

func BenchmarkE5ConcaveUtilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE5(42, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: shrinkage ablation ---

func BenchmarkE6ShrinkageAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE6(42, []float64{0, 1}, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: dynamic tracking (warm vs cold) ---

func BenchmarkE7WarmStart(b *testing.B) {
	x := paperInstance(b)
	base := gradient.New(x, gradient.Config{Eta: 0.04})
	if _, err := base.Run(3000, nil); err != nil {
		b.Fatal(err)
	}
	warmFrom := base.Routing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := gradient.NewFrom(x, warmFrom, gradient.Config{Eta: 0.04})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(500, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7ColdStart(b *testing.B) {
	x := paperInstance(b)
	for i := 0; i < b.N; i++ {
		eng := gradient.New(x, gradient.Config{Eta: 0.04})
		if _, err := eng.Run(500, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- DESIGN.md ablation: loop-freedom blocking protocol on/off ---

func BenchmarkBlockingEnabled(b *testing.B) {
	x := paperInstance(b)
	for i := 0; i < b.N; i++ {
		eng := gradient.New(x, gradient.Config{Eta: 0.04})
		if _, err := eng.Run(500, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockingDisabled(b *testing.B) {
	x := paperInstance(b)
	for i := 0; i < b.N; i++ {
		eng := gradient.New(x, gradient.Config{Eta: 0.04, DisableBlocking: true})
		if _, err := eng.Run(500, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-iteration microbenchmarks ---

func BenchmarkGradientIteration(b *testing.B) {
	x := paperInstance(b)
	eng := gradient.New(x, gradient.Config{Eta: 0.04})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkBackPressureIteration(b *testing.B) {
	x := paperInstance(b)
	eng := backpressure.New(x, backpressure.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkFlowEvaluate(b *testing.B) {
	x := paperInstance(b)
	r := flow.NewInitial(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.Evaluate(r)
	}
}

// BenchmarkEvaluate measures the workspace form: the same forward sweep
// as BenchmarkFlowEvaluate but reusing one preallocated Usage, the way
// the engines call it — the delta between the two benches is the
// allocation cost the arena refactor removed.
func BenchmarkEvaluate(b *testing.B) {
	x := paperInstance(b)
	r := flow.NewInitial(x)
	u := flow.NewUsage(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.EvaluateInto(u, r)
	}
}

// BenchmarkStepParallel exercises the per-commodity worker pool on a
// many-commodity instance (8 commodities, the E6 shape). Trajectories
// are identical across worker counts (see internal/gradient's
// determinism tests); only the wall clock may differ, and only on
// multi-core hardware. The worker set is fixed, not derived from the
// host, so every host produces the entries the baseline gates.
//
// One op is 100 Steps after one untimed Step. The regression gate runs
// at -benchtime=1x, where a single parallel Step reads anywhere from
// workers+1 allocations (the pool's goroutine closures and WaitGroup)
// to twice that, depending on whether the runtime's per-P goroutine and
// sudog caches happen to hit — no ±25% gate on a count of 5 survives
// that. Over 100 Steps the misses are noise on 100·(workers+1).
func BenchmarkStepParallel(b *testing.B) {
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	if err != nil {
		b.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := gradient.New(x, gradient.Config{Eta: 0.04, Workers: workers})
			eng.Step()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 100; k++ {
					eng.Step()
				}
			}
		})
	}
}

func BenchmarkMarginalCostWave(b *testing.B) {
	x := paperInstance(b)
	u := flow.Evaluate(flow.NewInitial(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < x.NumCommodities(); j++ {
			gradient.ComputeMarginals(u, j)
		}
	}
}

func BenchmarkTransformBuild(b *testing.B) {
	p, err := randnet.Generate(randnet.Config{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform.Build(p, transform.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandnetGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := randnet.Generate(randnet.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Solve(b *testing.B) {
	p, err := stream.Figure1(stream.Figure1Config{
		ServerCapacity: 10, Bandwidth: 40, MaxRate1: 20, MaxRate2: 20,
		TaskBeta: map[string]float64{"B": 0.5, "E": 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := gradient.New(x, gradient.Config{Eta: 0.05})
		if _, err := eng.Run(1000, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPWLReference(b *testing.B) {
	p, err := randnet.Generate(randnet.Config{
		Seed: 42, Nodes: 24, Commodities: 2,
		Utility: func(int) utility.Function { return utility.Log{Weight: 10, Scale: 1} },
	})
	if err != nil {
		b.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refopt.Solve(x, refopt.Options{Segments: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: failure recovery across ε ---

func BenchmarkE8FailureRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE8(2, []float64{0.2}, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Adaptive step-size controller vs fixed η ---

func BenchmarkAdaptiveEngine(b *testing.B) {
	x := paperInstance(b)
	for i := 0; i < b.N; i++ {
		eng := gradient.New(x, gradient.Config{Backtrack: true})
		for k := 0; k < 500; k++ {
			eng.Step()
		}
	}
}

// --- Queue-level validation of the optimized plan ---

func BenchmarkQsimReplay(b *testing.B) {
	x := paperInstance(b)
	eng := gradient.New(x, gradient.Config{Eta: 0.04})
	if _, err := eng.Run(3000, nil); err != nil {
		b.Fatal(err)
	}
	r := eng.Routing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qsim.Run(r, qsim.Config{Ticks: 2000, Arrivals: qsim.Poisson, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Path decomposition ---

func BenchmarkDecomposePaths(b *testing.B) {
	x := paperInstance(b)
	eng := gradient.New(x, gradient.Config{Eta: 0.04})
	if _, err := eng.Run(3000, nil); err != nil {
		b.Fatal(err)
	}
	u := eng.Solution()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < x.NumCommodities(); j++ {
			if _, err := flow.DecomposePaths(u, j); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Decision-lifecycle tracing (internal/obs/span) ---

// BenchmarkDecisionSpan prices one traced decision: a root span with
// two annotated children, the shape the admission server produces per
// mutation. The ring is sized so the bench wraps it, covering the
// steady-state (evicting) path.
func BenchmarkDecisionSpan(b *testing.B) {
	benchDecisionSpan(b, span.New(1024, nil))
}

// BenchmarkDecisionSpanRecorded is BenchmarkDecisionSpan over the
// daemon's emitter, an obs.Recorder (no sink): the difference is the
// cost of observing each span into streamopt_stage_seconds.
func BenchmarkDecisionSpanRecorded(b *testing.B) {
	benchDecisionSpan(b, span.New(1024, obs.NewRecorder(nil, nil)))
}

// BenchmarkDecisionSpanNil is the disabled path — a nil tracer must
// stay ≤1 alloc/op (it is in fact 0; benchdiff gates regressions).
func BenchmarkDecisionSpanNil(b *testing.B) {
	benchDecisionSpan(b, nil)
}

// benchDecisionSpan times decisions after one untimed one, so that even
// a -benchtime=1x run prices the steady state: a recorder's stage
// histograms are registered on a stage's first span, not on every one.
func benchDecisionSpan(b *testing.B, tr *span.Tracer) {
	decide := func(generation int) {
		root := tr.Start("decision", span.Context{})
		solve := tr.Start("solve", root.Context())
		solve.SetAttrInt("mutations_coalesced", 1)
		solve.End()
		root.SetAttrInt("generation", int64(generation))
		root.End()
	}
	decide(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide(i)
	}
}

// --- Scenario-driven load generation (internal/loadgen) ---

// BenchmarkDriverThroughput prices one full driven scenario: compile a
// seeded 800-epoch lognormal workload over 8 commodities, then stream
// every epoch's rate batch through the in-process admission server
// (default debounce coalescing the solver wakes) and barrier on the
// final snapshot. The CI smoke test asserts the derived rate stays
// ≥10k mutations/sec; this bench tracks the absolute cost.
func BenchmarkDriverThroughput(b *testing.B) {
	sc, err := loadgen.ParseScenario([]byte(`{
		"name": "bench", "seed": 3, "epochs": 800,
		"network": {"nodes": 24, "layers": 3},
		"cohorts": [{
			"name": "hot", "count": 8,
			"arrival": {"type": "immediate"},
			"rate": {"type": "lognormal", "median": 5, "sigma": 0.5}
		}]
	}`))
	if err != nil {
		b.Fatal(err)
	}
	c, err := loadgen.Compile(sc, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := server.New(c.Base, server.Options{MaxIters: 100, Logf: func(string, ...any) {}})
		if err != nil {
			b.Fatal(err)
		}
		res, err := loadgen.Run(c, loadgen.InProc{S: srv}, loadgen.DriverOptions{SyncTimeout: 60 * time.Second})
		srv.Close()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MutationsPerSec, "mut/s")
	}
}

// --- Flight recorder (internal/journal) ---

// BenchmarkServerMutation prices steady-state mutation handling with
// journaling DISABLED — the acceptance gate for the flight recorder is
// that wiring it in costs the disabled path at most one alloc/op
// (benchdiff's alloc tolerance enforces this against the baseline).
// Debounce is huge so the solver loop stays parked and the measurement
// isolates the mutate() path.
func BenchmarkServerMutation(b *testing.B) {
	p, err := randnet.Generate(randnet.Config{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	name := p.Commodities[0].Name
	srv, err := server.New(p, server.Options{
		Debounce: time.Hour,
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	// Close lets the parked loop run one drained solve; keep it out of
	// the measurement (at -benchtime=1x it was 2 000 of 2 300 allocs/op,
	// or none, depending on whether the loop had been scheduled yet).
	defer b.StopTimer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.SetMaxRate(name, 10+float64(i%7)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerMutationJournaled is the same path writing through
// the flight recorder (fsync off) — the absolute cost of a journaled
// admission decision.
func BenchmarkServerMutationJournaled(b *testing.B) {
	p, err := randnet.Generate(randnet.Config{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	name := p.Commodities[0].Name
	jw, err := journal.Create(b.TempDir(), journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer jw.Close()
	srv, err := server.New(p, server.Options{
		Debounce: time.Hour,
		Journal:  jw,
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	// Close lets the parked loop run one drained solve; keep it out of
	// the measurement (at -benchtime=1x it was 2 000 of 2 300 allocs/op,
	// or none, depending on whether the loop had been scheduled yet).
	defer b.StopTimer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.SetMaxRate(name, 10+float64(i%7)); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedInstance is the shard benches' workload: a random instance
// measured to reach the 1e-4 stationarity gap well inside the budget
// both unsharded and under the 4-shard dual decomposition (the same
// instance the server shard tests calibrate against).
func shardedInstance(b *testing.B) *stream.Problem {
	b.Helper()
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 24, Commodities: 4})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkShardedSolve prices a full cold sharded solve: subset
// builds on all four shards plus their turns to convergence, under a
// budget summed over shards (4 × 12000, the per-shard work of a single
// engine's 12000). Compare with BenchmarkE7ColdStart for the
// single-engine cost of the same kind of work.
func BenchmarkShardedSolve(b *testing.B) {
	p := shardedInstance(b)
	coord := shard.New(shard.Config{
		Shards: 4, Salt: 7, Eta: 0.04, MaxIters: 48000, StationaryTol: 1e-4,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Apply(p, nil); err != nil {
			b.Fatal(err)
		}
		res := coord.Solve(context.Background())
		if res.Err != nil || !res.Converged {
			b.Fatalf("sharded solve: converged=%v err=%v", res.Converged, res.Err)
		}
	}
}

// BenchmarkPriceExchange prices one sweep of shard turns at a
// stationary point — per-shard stationarity checks, and after each turn
// the shared-usage merge and the exact external-usage install — i.e.
// the pure coordination overhead a sharded deployment pays per sweep,
// with no gradient steps mixed in.
func BenchmarkPriceExchange(b *testing.B) {
	p := shardedInstance(b)
	coord := shard.New(shard.Config{
		Shards: 4, Salt: 7, Eta: 0.04, MaxIters: 48000, StationaryTol: 1e-4,
	})
	if _, err := coord.Apply(p, nil); err != nil {
		b.Fatal(err)
	}
	if res := coord.Solve(context.Background()); res.Err != nil || !res.Converged {
		b.Fatalf("warmup solve: converged=%v err=%v", res.Converged, res.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Already stationary: Solve runs exactly one sweep and observes
		// convergence.
		if res := coord.Solve(context.Background()); !res.Converged {
			b.Fatal("stationary solve did not converge in one round")
		}
	}
}

// BenchmarkJournalAppend prices one framed, CRC'd record append
// (buffered, fsync off).
func BenchmarkJournalAppend(b *testing.B) {
	jw, err := journal.Create(b.TempDir(), journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer jw.Close()
	payload := []byte(`{"rate":42.5}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := jw.Append(journal.Record{
			Kind:     journal.KindMutation,
			Rev:      int64(i + 2),
			Mutation: &journal.Mutation{Op: journal.OpSetRate, Target: "S1", Payload: payload},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sparse subgraph representation (E13) ---

// scale10kInstance generates the J=10k workload the sparse-subgraph
// representation targets: a 48-server shared core carrying 10,000
// commodities whose member subgraphs are 6-hop chains, so each
// commodity touches O(path) of the extended graph, not O(n+m).
func scale10kInstance(b *testing.B) *stream.Problem {
	b.Helper()
	p, err := randnet.GenerateSparse(randnet.Config{
		Seed: 13, Nodes: 48, Layers: 6, Commodities: 10000,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkBuildSubset prices one shard's cold subset build of a
// 4-shard J=10k deployment — the boot-time phase the ROADMAP measured
// as dominated by the dense O(J·(n+m)) per-commodity tables before the
// sparse Subgraph representation.
func BenchmarkBuildSubset(b *testing.B) {
	p := scale10kInstance(b)
	const shards = 4
	var incl []int
	for gi := range p.Commodities {
		if shard.Place(p.Commodities[gi].Name, 7, shards) == 0 {
			incl = append(incl, gi)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		x, err := transform.Build(p, transform.Options{Commodities: incl})
		if err != nil {
			b.Fatal(err)
		}
		bytes = x.BuildBytes()
	}
	b.ReportMetric(float64(bytes)/float64(len(incl)), "bytes/commodity")
}

// BenchmarkEvaluateSparse prices one full flow evaluation across all
// 10k commodities with a reused workspace: O(Σ_j member) work and zero
// allocations, where the dense layout swept J·(n+m) rows.
func BenchmarkEvaluateSparse(b *testing.B) {
	p := scale10kInstance(b)
	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := flow.NewInitial(x)
	ws := flow.NewUsage(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.EvaluateInto(ws, r)
	}
}

// sparseEngine builds the GenerateSparse scale-ladder instance with J
// commodities and an engine on it at the CI scale-smoke step size, run
// a few iterations past the all-rejected start.
func sparseEngine(b *testing.B, commodities int) *gradient.Engine {
	b.Helper()
	p, err := randnet.GenerateSparse(randnet.Config{
		Seed: 13, Nodes: 48, Layers: 6, Commodities: commodities,
	})
	if err != nil {
		b.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng := gradient.New(x, gradient.Config{Eta: 0.005, Workers: 1})
	for i := 0; i < 20; i++ {
		eng.Step()
	}
	return eng
}

// memberEdges is Σ_j member edges, the unit Step's cost is linear in.
func memberEdges(x *transform.Extended) int {
	n := 0
	for j := range x.Sub {
		n += x.Sub[j].NumEdges()
	}
	return n
}

// servingShardEngine is one shard of the admission server's J=10k
// deployment as it steps: shard 0 of 4 (placement salt 7) of the
// scale-ladder instance, external usage at a quarter of every capacity
// standing in for the other three shards, and the serving step mode —
// backtracking, no tags — run a few iterations past the cold start.
func servingShardEngine(b *testing.B) *gradient.Engine {
	b.Helper()
	p := scale10kInstance(b)
	var incl []int
	for gi := range p.Commodities {
		if shard.Place(p.Commodities[gi].Name, 7, 4) == 0 {
			incl = append(incl, gi)
		}
	}
	x, err := transform.Build(p, transform.Options{Commodities: incl})
	if err != nil {
		b.Fatal(err)
	}
	ext := make([]float64, x.SharedNodes)
	for n, c := range x.Capacity[:x.SharedNodes] {
		if !math.IsInf(c, 1) {
			ext[n] = c / 4
		}
	}
	x.SetExternal(ext)
	eng := gradient.New(x, gradient.Config{Eta: 0.04, Backtrack: true, DisableBlocking: true, Workers: 1})
	for i := 0; i < 20; i++ {
		eng.Step()
	}
	return eng
}

// BenchmarkStepSparse prices one single-worker Engine.Step — forecast,
// marginal/tag sweep, Γ — on the scale ladder. ns/member-edge is the
// complexity check: it should not move between the rungs. The serving
// rung is the step the admission server runs (servingShardEngine).
func BenchmarkStepSparse(b *testing.B) {
	for _, rung := range []struct {
		name string
		eng  func(*testing.B) *gradient.Engine
	}{
		{"J=1k", func(b *testing.B) *gradient.Engine { return sparseEngine(b, 1000) }},
		{"J=10k", func(b *testing.B) *gradient.Engine { return sparseEngine(b, 10000) }},
		{"serving", servingShardEngine},
	} {
		b.Run(rung.name, func(b *testing.B) {
			eng := rung.eng(b)
			edges := memberEdges(eng.X)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/member-edge")
		})
	}
}

// BenchmarkStationaritySparse prices the periodic convergence test of
// the solve loops at J=1k: Theorem 2's residuals on the engine's own
// workspaces, forecast included (a Step in between invalidates it).
func BenchmarkStationaritySparse(b *testing.B) {
	eng := sparseEngine(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng.Step()
		b.StartTimer()
		eng.Stationarity()
	}
}
