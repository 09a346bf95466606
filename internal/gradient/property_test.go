package gradient

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/randnet"
	"repro/internal/transform"
)

func randomExtended(t testing.TB, seed int64) *transform.Extended {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nodes := 10 + r.Intn(16)
	layers := 3 + r.Intn(3)
	maxCom := nodes / layers
	if maxCom > 3 {
		maxCom = 3
	}
	p, err := randnet.Generate(randnet.Config{
		Seed:        seed,
		Nodes:       nodes,
		Commodities: 1 + r.Intn(maxCom),
		Layers:      layers,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestQuickGammaPreservesSimplex: after any number of update steps on
// random instances, the routing variables stay a valid distribution at
// every node (φ ≥ 0, Σ = 1, zero off the member subgraph).
func TestQuickGammaPreservesSimplex(t *testing.T) {
	f := func(seed int64) bool {
		x := randomExtended(t, seed)
		eng := New(x, Config{Eta: 0.1})
		for i := 0; i < 40; i++ {
			eng.Step()
		}
		if err := eng.R.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCostNonIncreasingSmallEta: with a small step size the §5
// iteration is a descent method on random instances (transient barrier
// overshoots excepted — they appear as +Inf and must recover, so the
// check skips non-finite pairs).
func TestQuickCostNonIncreasingSmallEta(t *testing.T) {
	f := func(seed int64) bool {
		x := randomExtended(t, seed)
		eng := New(x, Config{Eta: 0.005})
		prev := math.Inf(1)
		for i := 0; i < 120; i++ {
			info := eng.Step()
			if !math.IsInf(info.Cost, 0) && !math.IsInf(prev, 0) {
				if info.Cost > prev+1e-7*(1+math.Abs(prev)) {
					t.Logf("seed %d iter %d: cost %g -> %g", seed, i, prev, info.Cost)
					return false
				}
			}
			prev = info.Cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMarginalsNonNegative: all marginal input costs are ≥ 0
// (costs Y and D are increasing, β and c positive), and exactly zero at
// each commodity's sink.
func TestQuickMarginalsNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		x := randomExtended(t, seed)
		eng := New(x, Config{Eta: 0.1})
		for i := 0; i < 30; i++ {
			eng.Step()
		}
		u := flow.Evaluate(eng.Routing())
		for j := range x.Commodities {
			m := ComputeMarginals(u, j)
			if m.RhoAt(&x.Sub[j], x.Commodities[j].Sink) != 0 {
				return false
			}
			for n, rho := range m.Rho {
				if rho < 0 || math.IsNaN(rho) {
					t.Logf("seed %d: rho[%d] = %g", seed, n, rho)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAdmissionWithinOffered: the admitted rate never exceeds λ_j
// and never goes negative at any point of any trajectory.
func TestQuickAdmissionWithinOffered(t *testing.T) {
	f := func(seed int64) bool {
		x := randomExtended(t, seed)
		eng := New(x, Config{Eta: 0.2})
		for i := 0; i < 60; i++ {
			info := eng.Step()
			for j, a := range info.Admitted {
				if a < -1e-9 || a > x.Commodities[j].MaxRate+1e-9 {
					t.Logf("seed %d iter %d: a_%d = %g of λ %g", seed, i, j, a, x.Commodities[j].MaxRate)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStationaryPointSatisfiesOptimalityCondition: once the engine
// has converged, Theorem 2's necessary condition holds approximately —
// at every node carrying traffic, every used out-link's marginal is
// within tolerance of the node's minimum marginal. The adaptive engine
// is used because a fixed η limit-cycles on the steepest random
// instances (see T2), where no stationary point is ever reached.
//
// Convergence is measured, not assumed from a step budget: the engine
// steps until Stationarity().MaxUsedGap ≤ 1e-2, checked every 50 steps,
// and the case fails with its seed and gap if 50 000 steps do not get
// there. The seeds are fixed, and the named one is an instance that
// needs about 9 300 steps (its gap is 0.40 at 4 000). The target is not
// tighter because the last decades drain sublinearly on some instances:
// seed 5577006791947779410 reaches 1e-2 in 1 550 steps but still reads
// 2e-3 after 50 000.
func TestQuickStationaryPointSatisfiesOptimalityCondition(t *testing.T) {
	const (
		gapTol   = 1e-2
		every    = 50
		maxSteps = 50_000
	)
	f := func(seed int64) bool {
		x := randomExtended(t, seed)
		eng := New(x, Config{Backtrack: true})
		for steps := 0; ; steps += every {
			gap := eng.Stationarity().MaxUsedGap
			if gap <= gapTol {
				break
			}
			if steps >= maxSteps {
				t.Logf("seed %d: MaxUsedGap %.3g after %d steps, want ≤ %g", seed, gap, steps, gapTol)
				return false
			}
			if _, err := eng.Run(every, nil); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		u := flow.Evaluate(eng.Routing())
		for j := range x.Commodities {
			m := ComputeMarginals(u, j)
			sg := &x.Sub[j]
			for ln := int32(0); ln < int32(sg.NumNodes()); ln++ {
				node := sg.Nodes[ln]
				if node == x.Commodities[j].Sink || u.T[j][ln] < 1e-3 {
					continue
				}
				min := math.Inf(1)
				for _, le := range sg.Out(ln) {
					if m.LinkD[le] < min {
						min = m.LinkD[le]
					}
				}
				for _, le := range sg.Out(ln) {
					if u.R.Phi[j][le] < 1e-3 {
						continue
					}
					// Used links must be near-optimal (eq. 12).
					if m.LinkD[le] > min+0.35*(1+min) {
						t.Logf("seed %d commodity %d node %d: used link %d marginal %g, min %g",
							seed, j, node, sg.Edges[le], m.LinkD[le], min)
						return false
					}
				}
			}
		}
		return true
	}
	const slowSeed = 9045377917532414361
	if !f(slowSeed) {
		t.Fatalf("seed %d", int64(slowSeed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
