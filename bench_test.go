// Package repro's per-kernel profiling harnesses for the sparse solver
// core at J=1k and J=10k. They are not a performance record: `go run
// ./bench` is the repo's one, reporting every layer end to end (see
// bench/README.md), and nothing compares these numbers against a
// baseline. What they give that the bench cannot is one kernel in
// isolation under `-cpuprofile`: ns/member-edge of Engine.Step up the
// scale ladder (the complexity check README cites) and the CPU split of
// the serving step one shard runs. CI runs each once, for its exit
// status only:
//
//	go test -run='^$' -bench=. -benchtime=1x .
//
// Single -benchtime=1x readings swing by up to 2× on a 2-vCPU host;
// take several thousand iterations before reading a number.
package repro

import (
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/randnet"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/transform"
)

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

// shard0 lists the commodities placement salt 7 puts on shard 0 of 4.
func shard0(p *stream.Problem) []int {
	var incl []int
	for gi := range p.Commodities {
		if shard.Place(p.Commodities[gi].Name, 7, 4) == 0 {
			incl = append(incl, gi)
		}
	}
	return incl
}

// BenchmarkBuildSubset prices one shard's cold subset build of a
// 4-shard J=10k deployment.
func BenchmarkBuildSubset(b *testing.B) {
	p := scale10kInstance(b)
	incl := shard0(p)
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
// allocations.
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
	eng := gradient.New(x, gradient.Config{Eta: 0.005})
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
// backtracking, no tags — run a few iterations past the cold start. It
// returns the external usage it installed on the engine too.
func servingShardEngine(b *testing.B) (*gradient.Engine, []float64) {
	b.Helper()
	p := scale10kInstance(b)
	x, err := transform.Build(p, transform.Options{Commodities: shard0(p)})
	if err != nil {
		b.Fatal(err)
	}
	ext := make([]float64, x.SharedNodes)
	for n, c := range x.Capacity[:x.SharedNodes] {
		if !math.IsInf(c, 1) {
			ext[n] = c / 4
		}
	}
	eng := gradient.New(x, gradient.Config{Eta: 0.04, Backtrack: true, DisableBlocking: true, Momentum: shard.ServingMomentum})
	eng.SetExternal(ext)
	for i := 0; i < 20; i++ {
		eng.Step()
	}
	return eng, ext
}

// servingWarmEngine is servingShardEngine 1 000 steps in, where the
// screen skips the share of rows it skips in steady state.
func servingWarmEngine(b *testing.B) (*gradient.Engine, []float64) {
	b.Helper()
	eng, ext := servingShardEngine(b)
	for i := 0; i < 1000; i++ {
		eng.Step()
	}
	return eng, ext
}

// BenchmarkStepSparse prices one Engine.Step — one pass per commodity
// (marginal/tag sweep, Γ, the forecast and measures of the new row) and
// one node pass — on the scale ladder. ns/member-edge is the complexity
// check: it should not move between the rungs. The
// serving rung is the step the admission server runs
// (servingShardEngine), 20 steps from its cold start, where the screen
// skips almost nothing; serving-warm is the same engine 1 000 steps in,
// where the screen skips the share of rows it skips in steady state.
// The backtracking engine settles after about 2 000 steps and then rejects
// every step, each of which forecasts the routing again; keep
// -benchtime at a few hundred iterations to price accepted steps.
func BenchmarkStepSparse(b *testing.B) {
	for _, rung := range []struct {
		name string
		eng  func(*testing.B) *gradient.Engine
	}{
		{"J=1k", func(b *testing.B) *gradient.Engine { return sparseEngine(b, 1000) }},
		{"J=10k", func(b *testing.B) *gradient.Engine { return sparseEngine(b, 10000) }},
		{"serving", func(b *testing.B) *gradient.Engine { eng, _ := servingShardEngine(b); return eng }},
		{"serving-warm", func(b *testing.B) *gradient.Engine { eng, _ := servingWarmEngine(b); return eng }},
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

// BenchmarkStationaritySparse prices the convergence test a shard's
// turn runs before its steps: Theorem 2's eq.-12 gap on the engine's
// own workspaces, forecast included (a Step in between invalidates it),
// swept in full as a passing check sweeps it (a failing one stops at
// the first row past its tolerance). The J=1k rung is a paper-mode
// engine, as a paper-mode shard steps it; serving-warm is the engine
// BenchmarkStepSparse/serving-warm steps, checked as a shard's turn
// checks it: after its external usage is installed again
// (Engine.SetExternal), so the node pass is priced too, and with the
// screen skipping the rows whose bound holds. Keep -benchtime at a few
// hundred iterations, as for BenchmarkStepSparse.
func BenchmarkStationaritySparse(b *testing.B) {
	for _, rung := range []struct {
		name string
		eng  func(*testing.B) (*gradient.Engine, []float64)
	}{
		{"J=1k", func(b *testing.B) (*gradient.Engine, []float64) { return sparseEngine(b, 1000), nil }},
		{"serving-warm", servingWarmEngine},
	} {
		b.Run(rung.name, func(b *testing.B) {
			eng, ext := rung.eng(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng.Step()
				eng.SetExternal(ext)
				b.StartTimer()
				eng.Stationarity()
			}
		})
	}
}
