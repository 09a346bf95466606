package gradient

import (
	"errors"
	"testing"

	"repro/internal/flow"
	"repro/internal/randnet"
	"repro/internal/refopt"
	"repro/internal/stream"
	"repro/internal/utility"
)

// iterationsToTarget converges eng until utility reaches the fraction
// of the reference optimum, returning the iteration count (or maxIters
// if never reached).
func iterationsToTarget(t *testing.T, eng *Engine, target, fraction float64, maxIters int) int {
	t.Helper()
	hit, err := hitTarget(eng, fraction*target, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	if hit < 0 {
		return maxIters
	}
	return hit
}

// TestWarmStartBeatsColdUnderRateUpdates is the admission server's core
// performance assumption: after several offered rates λ_j move, a
// re-solve warm-started from the previously converged routing reaches
// the new optimum in fewer iterations than a cold start. Table covers
// rate increases, decreases, and mixed perturbations across multiple
// commodities.
func TestWarmStartBeatsColdUnderRateUpdates(t *testing.T) {
	cases := []struct {
		name    string
		seed    int64
		scale   map[int]float64 // commodity index -> λ multiplier
		nodes   int
		commods int
	}{
		{name: "two rates up", seed: 11, scale: map[int]float64{0: 1.3, 1: 1.5}, nodes: 20, commods: 3},
		{name: "two rates down", seed: 11, scale: map[int]float64{0: 0.6, 2: 0.7}, nodes: 20, commods: 3},
		{name: "mixed shift", seed: 23, scale: map[int]float64{0: 0.5, 1: 1.4, 2: 0.8}, nodes: 24, commods: 3},
		{name: "single burst", seed: 37, scale: map[int]float64{1: 2.0}, nodes: 16, commods: 2},
	}
	const (
		preIters = 1500
		budget   = 4000
		fraction = 0.90
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gen := func() *stream.Problem {
				return generate(t, randnet.Config{
					Seed: tc.seed, Nodes: tc.nodes, Commodities: tc.commods,
					CapMin: 20, CapMax: 60, CostMin: 1, CostMax: 3,
					LambdaMin: 10, LambdaMax: 30,
				})
			}

			// Converge on the original rates.
			x0 := build(t, gen(), nil)
			pre := New(x0, Config{Eta: 0.04})
			if err := run(pre, preIters); err != nil {
				t.Fatal(err)
			}

			// Perturb several offered rates; same topology.
			perturbed := gen()
			for j, mult := range tc.scale {
				perturbed.Commodities[j].MaxRate *= mult
			}
			x1 := build(t, perturbed, nil)
			ref, err := refopt.Solve(x1, refopt.Options{})
			if err != nil {
				t.Fatal(err)
			}

			warmEng, err := NewFrom(x1, pre.Routing(), Config{Eta: 0.04})
			if err != nil {
				t.Fatalf("warm start rebind failed on unchanged topology: %v", err)
			}
			warm := iterationsToTarget(t, warmEng, ref.Utility, fraction, budget)
			cold := iterationsToTarget(t, New(x1, Config{Eta: 0.04}), ref.Utility, fraction, budget)

			if warm >= cold {
				t.Fatalf("warm start did not help: warm %d iterations, cold %d (target %.0f%% of %.4f)",
					warm, cold, 100*fraction, ref.Utility)
			}
			t.Logf("warm %d vs cold %d iterations to %.0f%% of optimum", warm, cold, 100*fraction)
		})
	}
}

// TestNewFromTopologyChangeError checks the fallback ergonomics the
// server depends on: adding a commodity changes the extended topology,
// and the rebind error both matches flow.ErrTopologyChanged and names
// the dimension that moved.
func TestNewFromTopologyChangeError(t *testing.T) {
	p := generate(t, randnet.Config{Seed: 5, Nodes: 12, Commodities: 2})
	x0 := build(t, p, nil)
	eng := New(x0, Config{})
	if err := run(eng, 10); err != nil {
		t.Fatal(err)
	}

	// Same network, one more commodity: extended shape changes.
	p2 := p.Clone()
	src := p2.Commodities[0].Source
	sink, err := p2.Net.AddSink("sink:extra")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Net.AddLink(src, sink, 10); err != nil {
		t.Fatal(err)
	}
	c, err := p2.AddCommodity("extra", src, sink, 5, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := p2.Net.G.EdgeBetween(src, sink)
	if err := p2.SetEdge(c, e, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	x1 := build(t, p2, nil)

	_, err = NewFrom(x1, eng.Routing(), Config{})
	if err == nil {
		t.Fatal("NewFrom succeeded across a topology change")
	}
	if !errors.Is(err, flow.ErrTopologyChanged) {
		t.Fatalf("error does not match flow.ErrTopologyChanged: %v", err)
	}
	t.Logf("topology-change error: %v", err)
}
