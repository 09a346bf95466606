// End-to-end cross-validation on the repo's reference instance (§6
// configuration, randnet seed 2): every solver and substrate must tell
// one consistent story. These tests take a few seconds each and tie the
// whole pipeline together — model → transform → optimize (gradient in
// both step modes, back-pressure) → reference LP → path decomposition →
// queue-level replay.
package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/backpressure"
	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/qsim"
	"repro/internal/randnet"
	"repro/internal/refopt"
	"repro/internal/stream"
	"repro/internal/transform"
)

func referenceInstance(t testing.TB) *transform.Extended {
	t.Helper()
	p, err := randnet.Generate(randnet.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestEndToEndAllSolversAgree(t *testing.T) {
	x := referenceInstance(t)
	ref, err := refopt.Solve(x, refopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Utility < 40 || ref.Utility > 60 {
		t.Fatalf("reference optimum %g outside the expected band for seed 2", ref.Utility)
	}

	// §6's criterion: the fixed-η gradient reaches 95% of the optimum
	// in about 1 000 iterations on this instance.
	hit := -1
	_, _, err = gradient.New(x, gradient.Config{Eta: 0.04}).Run(context.Background(), 20000, 0, new(gradient.DivergenceDetector), func(info gradient.StepInfo) bool {
		if info.Utility >= 0.95*ref.Utility {
			hit = info.Iteration
		}
		return hit >= 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit < 0 {
		t.Fatalf("gradient never reached 95%% of the optimum %g in 20000 iterations", ref.Utility)
	}

	// Gradient in both step modes must land in the same neighborhood
	// below the LP optimum.
	eng := gradient.New(x, gradient.Config{Eta: 0.04})
	if _, _, err := eng.Run(context.Background(), 5000, 0, new(gradient.DivergenceDetector), nil); err != nil {
		t.Fatal(err)
	}
	fixed := eng.Solution().Utility()

	ad := gradient.New(x, gradient.Config{Backtrack: true})
	if _, _, err := ad.Run(context.Background(), 5000, 0, new(gradient.DivergenceDetector), nil); err != nil {
		t.Fatal(err)
	}
	adaptive := ad.Solution().Utility()

	for name, u := range map[string]float64{"gradient": fixed, "adaptive": adaptive} {
		if u > ref.Utility+1e-6 {
			t.Fatalf("%s utility %g exceeds the LP optimum %g", name, u, ref.Utility)
		}
		if u < 0.93*ref.Utility {
			t.Fatalf("%s utility %g below 93%% of the optimum %g", name, u, ref.Utility)
		}
	}

	// Back-pressure's long-run cumulative utility approaches the same
	// optimum from below.
	bp := backpressure.New(x, backpressure.Config{})
	var cum float64
	for i := 0; i < 40000; i++ {
		cum = bp.Step().Cumulative
	}
	if cum > ref.Utility+1e-6 {
		t.Fatalf("back-pressure cumulative %g exceeds the optimum %g", cum, ref.Utility)
	}
	if cum < 0.8*ref.Utility {
		t.Fatalf("back-pressure cumulative %g below 80%% after 40k iterations", cum)
	}
}

func TestEndToEndPlanSurvivesQueueReplay(t *testing.T) {
	x := referenceInstance(t)
	eng := gradient.New(x, gradient.Config{Eta: 0.04})
	if _, _, err := eng.Run(context.Background(), 5000, 0, new(gradient.DivergenceDetector), nil); err != nil {
		t.Fatal(err)
	}
	sol := eng.Solution()

	// Decomposition covers the full offered rate.
	for j := range x.Commodities {
		paths, err := flow.DecomposePaths(sol, j)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, p := range paths {
			total += p.Rate
		}
		if lambda := x.Commodities[j].MaxRate; math.Abs(total-lambda) > 1e-6*(1+lambda) {
			t.Fatalf("commodity %d: decomposition covers %g of λ = %g", j, total, lambda)
		}
	}

	// The queue replay delivers the plan.
	res, err := qsim.Run(eng.Routing(), qsim.Config{Ticks: 6000})
	if err != nil {
		t.Fatal(err)
	}
	for j := range x.Commodities {
		want := sol.AdmittedRate(j)
		if math.Abs(res.Delivered[j]-want) > 0.05*(1+want) {
			t.Fatalf("commodity %d: queue replay delivered %g, plan admitted %g",
				j, res.Delivered[j], want)
		}
	}
}

func TestEndToEndJSONRoundTripPreservesSolution(t *testing.T) {
	// Serialize the instance, parse it back, and verify the solvers see
	// the identical problem (same LP optimum to machine precision).
	p, err := randnet.Generate(randnet.Config{Seed: 2, Nodes: 16, Commodities: 2, Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	q, err := stream.ParseProblem(data)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(pr *stream.Problem) float64 {
		x, err := transform.Build(pr, transform.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refopt.Solve(x, refopt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ref.Utility
	}
	if a, b := solve(p), solve(q); math.Abs(a-b) > 1e-9*(1+a) {
		t.Fatalf("round trip changed the optimum: %g vs %g", a, b)
	}
}
