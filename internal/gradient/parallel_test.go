package gradient

import (
	"math"
	"testing"

	"repro/internal/randnet"
	"repro/internal/transform"
)

// buildInstance generates a randnet problem and its extended form.
func buildInstance(t *testing.T, cfg randnet.Config) *transform.Extended {
	t.Helper()
	p, err := randnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func assertTraceBitwiseEqual(t *testing.T, got, want []StepInfo, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: trace length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Iteration != w.Iteration || g.Utility != w.Utility ||
			g.Cost != w.Cost || g.Feasible != w.Feasible {
			t.Fatalf("%s: iteration %d differs: %+v vs %+v", label, i, g, w)
		}
		if len(g.Admitted) != len(w.Admitted) {
			t.Fatalf("%s: iteration %d: admitted length %d vs %d", label, i, len(g.Admitted), len(w.Admitted))
		}
		for j := range w.Admitted {
			if g.Admitted[j] != w.Admitted[j] {
				t.Fatalf("%s: iteration %d commodity %d: admitted %v vs %v",
					label, i, j, g.Admitted[j], w.Admitted[j])
			}
		}
	}
}

// TestParallelTrajectoryBitwiseIdentical is the determinism contract of
// the worker pool: any Workers value must reproduce the sequential
// trajectory bit for bit — utility, cost, admitted rates, and the
// protocol accounting (messages, rounds) all exact.
func TestParallelTrajectoryBitwiseIdentical(t *testing.T) {
	instances := []struct {
		name  string
		cfg   randnet.Config
		steps int
	}{
		// The §6 paper instance (E4 scale).
		{"paper", randnet.Config{Seed: 2, Nodes: 40, Commodities: 3}, 300},
		// A many-commodity instance (E6 scale) where the pool has real
		// work to split.
		{"many-commodity", randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8}, 200},
		// The seed sweep the sharded parity tests use — same instances,
		// so the worker-pool and shard determinism contracts are checked
		// on identical ground.
		{"sweep-seed2", randnet.Config{Seed: 2, Nodes: 24, Commodities: 4}, 150},
		{"sweep-seed3", randnet.Config{Seed: 3, Nodes: 24, Commodities: 4}, 150},
		{"sweep-seed5", randnet.Config{Seed: 5, Nodes: 24, Commodities: 4}, 150},
	}
	for _, tc := range instances {
		t.Run(tc.name, func(t *testing.T) {
			x := buildInstance(t, tc.cfg)
			seq := New(x, Config{Workers: 1})
			seqTrace, err := seq.Run(tc.steps, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				par := New(x, Config{Workers: workers})
				parTrace, err := par.Run(tc.steps, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertTraceBitwiseEqual(t, parTrace, seqTrace, tc.name)
				if par.Stats() != seq.Stats() {
					t.Fatalf("workers=%d: stats %+v vs sequential %+v", workers, par.Stats(), seq.Stats())
				}
			}
		})
	}
}

// TestParallelTrajectoryIdenticalAcrossSeeds sweeps generator seeds so
// the determinism guarantee is not an artifact of one topology.
func TestParallelTrajectoryIdenticalAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		x := buildInstance(t, randnet.Config{Seed: seed, Nodes: 24, Commodities: 4})
		seq := New(x, Config{Workers: 1})
		par := New(x, Config{Workers: 4})
		seqTrace, err := seq.Run(120, nil)
		if err != nil {
			t.Fatal(err)
		}
		parTrace, err := par.Run(120, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertTraceBitwiseEqual(t, parTrace, seqTrace, "seed sweep")
		if par.Stats() != seq.Stats() {
			t.Fatalf("seed %d: stats %+v vs %+v", seed, par.Stats(), seq.Stats())
		}
	}
}

// TestAdaptiveParallelTrajectoryIdentical covers the backtracking
// engine, whose accept/reject decisions would amplify any trajectory
// divergence.
func TestAdaptiveParallelTrajectoryIdentical(t *testing.T) {
	x := buildInstance(t, randnet.Config{Seed: 3, Nodes: 24, Commodities: 4})
	seq := New(x, Config{Backtrack: true, Workers: 1})
	par := New(x, Config{Backtrack: true, Workers: 4})
	for i := 0; i < 200; i++ {
		si, pi := seq.Step(), par.Step()
		if si.Utility != pi.Utility || si.Cost != pi.Cost || si.Feasible != pi.Feasible {
			t.Fatalf("iteration %d: %+v vs %+v", i, pi, si)
		}
		if seq.Eta() != par.Eta() {
			t.Fatalf("iteration %d: eta %v vs %v", i, par.Eta(), seq.Eta())
		}
	}
	if seq.Backtracks() != par.Backtracks() {
		t.Fatalf("backtracks %d vs %d", par.Backtracks(), seq.Backtracks())
	}
}

// TestStepSteadyStateAllocs pins the workspace contract of the iterate
// layer: with a single worker, neither Step nor
// the periodic convergence test on the engine's workspaces allocates.
func TestStepSteadyStateAllocs(t *testing.T) {
	x := buildInstance(t, randnet.Config{Seed: 2, Nodes: 40, Commodities: 3})
	e := New(x, Config{Workers: 1})
	for i := 0; i < 10; i++ {
		e.Step() // warm up past any lazy growth
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Step() }); allocs != 0 {
		t.Fatalf("Step allocates %v objects per run in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Step(); e.Stationarity() }); allocs != 0 {
		t.Fatalf("Step + Stationarity allocate %v objects per run, want 0", allocs)
	}
	// Backtracking swaps between two usage workspaces; it allocates
	// neither on a kept step nor on a rejected one (η 50 forces both).
	b := New(x, Config{Eta: 50, Backtrack: true, Workers: 1})
	for i := 0; i < 10; i++ {
		b.Step()
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Step() }); allocs != 0 {
		t.Fatalf("backtracking Step allocates %v objects per run, want 0", allocs)
	}
	if b.Backtracks() == 0 || b.Backtracks() == b.Stats().Iterations {
		t.Fatalf("%d of %d steps rejected; want both branches measured", b.Backtracks(), b.Stats().Iterations)
	}
	// The server's serving step: backtracking without the tags and with
	// the heavy-ball term, priced against the external usage of the
	// other shards, carrying each accepted routing's evaluation into the
	// next step.
	sx := buildInstance(t, randnet.Config{Seed: 2, Nodes: 40, Commodities: 3})
	ext := make([]float64, sx.SharedNodes)
	for n, c := range sx.Capacity[:sx.SharedNodes] {
		if !math.IsInf(c, 1) {
			ext[n] = c / 4
		}
	}
	sx.SetExternal(ext)
	s := New(sx, Config{Eta: 0.04, Backtrack: true, DisableBlocking: true, Momentum: 0.9, Workers: 1})
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Step() }); allocs != 0 {
		t.Fatalf("serving Step allocates %v objects per run, want 0", allocs)
	}
}
