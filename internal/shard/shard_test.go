package shard

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

func TestPlaceStable(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8, 16} {
		counts := make([]int, shards)
		for i := 0; i < 1000; i++ {
			name := fmt.Sprintf("commodity-%d", i)
			s := Place(name, 42, shards)
			if s < 0 || s >= shards {
				t.Fatalf("Place(%q, 42, %d) = %d out of range", name, shards, s)
			}
			if again := Place(name, 42, shards); again != s {
				t.Fatalf("Place not deterministic: %d vs %d", s, again)
			}
			counts[s]++
		}
		// Jump hash should spread 1000 names roughly evenly.
		for s, n := range counts {
			if n == 0 {
				t.Fatalf("shards=%d: shard %d owns no commodities", shards, s)
			}
		}
	}
}

func TestPlaceSaltChangesPartition(t *testing.T) {
	movedBySalt := 0
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("c%d", i)
		if Place(name, 1, 8) != Place(name, 2, 8) {
			movedBySalt++
		}
	}
	if movedBySalt == 0 {
		t.Fatal("changing the salt moved no commodity; salt is not mixed into the hash")
	}
}

// TestPlaceConsistentGrowth checks the jump-hash minimal-movement
// property: growing the shard count only ever moves commodities onto
// the new shards, never between existing ones.
func TestPlaceConsistentGrowth(t *testing.T) {
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("c%d", i)
		before := Place(name, 7, 4)
		after := Place(name, 7, 5)
		if after != before && after != 4 {
			t.Fatalf("%q moved %d→%d when growing 4→5 shards", name, before, after)
		}
	}
}

// solveUnsharded runs a single full-problem engine to stationarity
// (or the iteration budget) and returns its utility.
func solveUnsharded(t *testing.T, p *stream.Problem, eta, tol float64, maxIters int) float64 {
	t.Helper()
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	eng := gradient.New(x, gradient.Config{Eta: eta})
	for i := 0; i < maxIters; i++ {
		eng.Step()
		if i%25 == 24 {
			rep := gradient.CheckStationarity(flow.Evaluate(eng.Routing()))
			if rep.MaxUsedGap <= tol {
				break
			}
		}
	}
	return eng.Solution().Utility()
}

// solveSharded boots a paper-mode coordinator over p with the given
// shard count and runs one full solve from cold.
func solveSharded(t *testing.T, p *stream.Problem, shards int, eta, tol float64, maxIters int) Result {
	t.Helper()
	return solveCold(t, p, Config{Shards: shards, Eta: eta, MaxIters: maxIters, StationaryTol: tol})
}

// solveCold boots a coordinator with cfg (placement salt 7) over p and
// runs one full solve from cold.
func solveCold(t *testing.T, p *stream.Problem, cfg Config) Result {
	t.Helper()
	cfg.Salt = 7
	c := New(cfg)
	dirty := make([]bool, cfg.Shards)
	for i := range dirty {
		dirty[i] = true
	}
	if _, err := c.Apply(p, dirty); err != nil {
		t.Fatal(err)
	}
	return c.Solve(context.Background())
}

// TestShardedMatchesUnsharded is the convergence property of shards
// taking turns: at equal work — a budget of shards × the one engine's,
// summed over shards — the sharded final utility must land close to one
// engine's.
//
// The paper-mode rows (N ∈ {2,4,8}, within 0.1%) are the E4 paper
// instance, the E6 many-commodity instance, and a seed sweep, against a
// plain engine loop. Step size, stationarity tolerance, and iteration
// budget are calibrated per instance so that BOTH solves actually reach
// stationarity: the fixed-step gradient oscillates on some random
// instances at the default Eta (e.g. the E6 instance needs 0.01), and a
// parity comparison between two unconverged trajectories is
// meaningless. Seeds whose unsharded trajectory never settles at any
// tested step size (e.g. seed 1 of the 24-node family) are excluded.
//
// The sparse rows (N ∈ {2,4}, within 0.5%, every solve feasible) are
// the scale family in the serving mode: a thousand commodities sharing
// one 48-node core, against a one-shard coordinator with 3000
// iterations.
func TestShardedMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance convergence sweep")
	}
	instances := []struct {
		name     string
		cfg      randnet.Config
		eta, tol float64
		maxIters int
	}{
		{"paper-e4", randnet.Config{Seed: 2, Nodes: 40, Commodities: 3}, 0.04, 1e-3, 30000},
		{"many-commodity-e6", randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8}, 0.01, 5e-3, 40000},
		{"sweep-seed2", randnet.Config{Seed: 2, Nodes: 24, Commodities: 4}, 0.04, 1e-3, 12000},
		{"sweep-seed3", randnet.Config{Seed: 3, Nodes: 24, Commodities: 4}, 0.04, 1e-3, 40000},
		{"sweep-seed5", randnet.Config{Seed: 5, Nodes: 24, Commodities: 4}, 0.04, 1e-4, 12000},
	}

	for _, inst := range instances {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			t.Parallel()
			p, err := randnet.Generate(inst.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := solveUnsharded(t, p, inst.eta, inst.tol, inst.maxIters)
			for _, shards := range []int{2, 4, 8} {
				res := solveSharded(t, p, shards, inst.eta, inst.tol, shards*inst.maxIters)
				rel := math.Abs(res.Utility-want) / math.Abs(want)
				if rel > 1e-3 {
					t.Errorf("shards=%d: utility %.9f vs unsharded %.9f (rel %.2e > 0.1%%, converged=%v rounds=%d iters=%d)",
						shards, res.Utility, want, rel, res.Converged, res.Rounds, res.Iterations)
				}
				if res.Err != nil {
					t.Errorf("shards=%d: divergence: %v", shards, res.Err)
				}
			}
		})
	}

	t.Run("sparse-J1k", func(t *testing.T) {
		t.Parallel()
		p, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 1000})
		if err != nil {
			t.Fatal(err)
		}
		const budget = 3000
		serving := func(shards int) Result {
			res := solveCold(t, p, Config{Shards: shards, Serving: true, Eta: 0.005,
				StationaryTol: 5e-3, MaxIters: shards * budget})
			if !res.Feasible || res.Err != nil {
				t.Errorf("shards=%d: feasible=%v err=%v", shards, res.Feasible, res.Err)
			}
			return res
		}
		want := serving(1).Utility
		for _, shards := range []int{2, 4} {
			res := serving(shards)
			rel := math.Abs(res.Utility-want) / math.Abs(want)
			t.Logf("shards=%d: utility %.4f vs one shard %.4f (rel %.2e, iters %d)", shards, res.Utility, want, rel, res.Iterations)
			if rel > 5e-3 {
				t.Errorf("shards=%d: utility %.6f vs one shard %.6f (rel %.2e > 0.5%%, converged=%v rounds=%d iters=%d)",
					shards, res.Utility, want, rel, res.Converged, res.Rounds, res.Iterations)
			}
		}
	})
}

// TestShardedDeterministic: two coordinators over the same problem and
// config produce bitwise-identical trajectories — the property replay
// verification of sharded runs rests on.
func TestShardedDeterministic(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 3, Nodes: 32, Layers: 4, Commodities: 6})
	if err != nil {
		t.Fatal(err)
	}
	a := solveSharded(t, p, 4, 0.04, 1e-4, 2000)
	b := solveSharded(t, p, 4, 0.04, 1e-4, 2000)
	if a.Utility != b.Utility || a.Iterations != b.Iterations || a.Rounds != b.Rounds {
		t.Fatalf("non-deterministic sharded solve: %+v vs %+v", a, b)
	}
	ca := solveShardedCoordinator(t, p, 4, 2000)
	for gi, st := range ca.Commodities() {
		cb := solveShardedCoordinator(t, p, 4, 2000).Commodities()[gi]
		if st.Admitted != cb.Admitted {
			t.Fatalf("commodity %q admitted %v vs %v", st.Name, st.Admitted, cb.Admitted)
		}
	}
}

// TestShardedReplayBitwiseIdentical: at Shards ∈ {1, 4}, re-running the
// coordinator with the same config on the same problem reproduces the
// Result.Utility and every per-commodity admitted rate bit for bit, on
// the E4 paper instance, the E6 many-commodity instance, and the seed
// sweep. With the sparse per-commodity subgraphs this is the end-to-end
// determinism contract: subset build, local evaluation, and the
// dual-price exchange must all be fixed-order.
func TestShardedReplayBitwiseIdentical(t *testing.T) {
	instances := []struct {
		name string
		cfg  randnet.Config
	}{
		{"paper-e4", randnet.Config{Seed: 2, Nodes: 40, Commodities: 3}},
		{"many-commodity-e6", randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8}},
		{"sweep-seed2", randnet.Config{Seed: 2, Nodes: 24, Commodities: 4}},
		{"sweep-seed3", randnet.Config{Seed: 3, Nodes: 24, Commodities: 4}},
		{"sweep-seed5", randnet.Config{Seed: 5, Nodes: 24, Commodities: 4}},
	}
	for _, inst := range instances {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			t.Parallel()
			p, err := randnet.Generate(inst.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 4} {
				a := solveSharded(t, p, shards, 0.04, 1e-4, 1500)
				b := solveSharded(t, p, shards, 0.04, 1e-4, 1500)
				if a.Utility != b.Utility || a.Iterations != b.Iterations || a.Rounds != b.Rounds {
					t.Fatalf("shards=%d: replay drifted: %+v vs %+v", shards, a, b)
				}
				ca := solveShardedCoordinator(t, p, shards, 1500).Commodities()
				cb := solveShardedCoordinator(t, p, shards, 1500).Commodities()
				if len(ca) != len(cb) {
					t.Fatalf("shards=%d: commodity count %d vs %d", shards, len(ca), len(cb))
				}
				for gi := range ca {
					if ca[gi].Admitted != cb[gi].Admitted {
						t.Fatalf("shards=%d commodity %q: admitted %v vs %v",
							shards, ca[gi].Name, ca[gi].Admitted, cb[gi].Admitted)
					}
				}
			}
		})
	}
}

func solveShardedCoordinator(t *testing.T, p *stream.Problem, shards, maxIters int) *Coordinator {
	t.Helper()
	c := New(Config{Shards: shards, Salt: 7, MaxIters: maxIters, StationaryTol: 1e-4})
	dirty := make([]bool, shards)
	for i := range dirty {
		dirty[i] = true
	}
	if _, err := c.Apply(p, dirty); err != nil {
		t.Fatal(err)
	}
	c.Solve(context.Background())
	return c
}

// TestShardedIncrementalWarm: after a rate change dirtying one shard,
// only that shard rebuilds (warm), and the re-solve still settles to
// the unsharded optimum of the updated problem.
func TestShardedIncrementalWarm(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 24, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	c := New(Config{Shards: shards, Salt: 7, MaxIters: 12000, StationaryTol: 1e-4})
	all := make([]bool, shards)
	for i := range all {
		all[i] = true
	}
	if _, err := c.Apply(p, all); err != nil {
		t.Fatal(err)
	}
	c.Solve(context.Background())

	// Halve one commodity's offered rate; only its owner shard is dirty.
	name := p.Commodities[0].Name
	next := p.Clone()
	if err := next.SetMaxRate(name, p.Commodities[0].MaxRate/2); err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, shards)
	dirty[Place(name, 7, shards)] = true
	warm, err := c.Apply(next, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("single-shard rate change should warm-start its rebuild")
	}
	res := c.Solve(context.Background())

	want := solveUnsharded(t, next, 0.04, 1e-4, 12000)
	rel := math.Abs(res.Utility-want) / math.Abs(want)
	if rel > 1e-3 {
		t.Fatalf("after incremental re-solve: utility %.9f vs %.9f (rel %.2e)", res.Utility, want, rel)
	}
}

// TestSubsetBuildSharedPrefix: subset builds over the same network
// share the identical node prefix (names, kinds, capacities), the
// invariant cross-shard usage exchange depends on.
func TestSubsetBuildSharedPrefix(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 9, Nodes: 16, Layers: 4, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := transform.Build(p, transform.Options{Epsilon: 0.2, Commodities: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if full.SharedNodes != sub.SharedNodes {
		t.Fatalf("SharedNodes %d vs %d", full.SharedNodes, sub.SharedNodes)
	}
	for n := range graph.NodeID(full.SharedNodes) {
		if full.Name(n) != sub.Name(n) || full.Kind(n) != sub.Kind(n) || full.Capacity[n] != sub.Capacity[n] {
			t.Fatalf("shared prefix diverges at node %d: %q/%v/%v vs %q/%v/%v",
				n, full.Name(n), full.Kind(n), full.Capacity[n], sub.Name(n), sub.Kind(n), sub.Capacity[n])
		}
	}
	if got := len(sub.Commodities); got != 2 {
		t.Fatalf("subset build has %d commodities, want 2", got)
	}
	if sub.Commodities[0].Name != p.Commodities[1].Name || sub.Commodities[1].Name != p.Commodities[3].Name {
		t.Fatalf("subset commodities %q,%q", sub.Commodities[0].Name, sub.Commodities[1].Name)
	}
}

// TestExternalUsageShiftsPrices: installing external usage on a subset
// build must raise the barrier's marginal price exactly as if the flow
// were local.
func TestExternalUsageShiftsPrices(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 9, Nodes: 16, Layers: 4, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2, Commodities: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	var node int = -1
	for n := 0; n < x.SharedNodes; n++ {
		if !math.IsInf(x.Capacity[n], 1) {
			node = n
			break
		}
	}
	if node < 0 {
		t.Fatal("no capacitated shared node")
	}
	base := x.PenaltyDeriv(graph.NodeID(node), 1.0)
	ext := make([]float64, x.SharedNodes)
	ext[node] = 2.5
	x.SetExternal(ext)
	shifted := x.PenaltyDeriv(graph.NodeID(node), 1.0)
	direct := x.Epsilon * utility.Reciprocal{}.Deriv(3.5, x.Capacity[node])
	if shifted != direct {
		t.Fatalf("external price %v != direct evaluation %v", shifted, direct)
	}
	if shifted <= base {
		t.Fatalf("external usage did not raise the marginal price: %v <= %v", shifted, base)
	}
}
