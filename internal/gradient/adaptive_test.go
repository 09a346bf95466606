package gradient

import (
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/randnet"
	"repro/internal/refopt"
	"repro/internal/transform"
)

func TestAdaptiveCostMonotone(t *testing.T) {
	// The accept/reject rule makes the cost non-increasing by
	// construction; verify over a real trajectory.
	x := randomExtended(t, 13)
	e := New(x, Config{Backtrack: true})
	prev := math.Inf(1)
	for i := 0; i < 800; i++ {
		info := e.Step()
		if info.Cost > prev+1e-9 {
			t.Fatalf("iteration %d: cost rose %g -> %g", i, prev, info.Cost)
		}
		prev = info.Cost
	}
}

func TestAdaptiveSurvivesHostileInitialEta(t *testing.T) {
	// A wildly too-large initial η must be tamed by backtracking and
	// still converge near the fixed-η optimum.
	x := randomExtended(t, 17)
	ref, err := refopt.Solve(x, refopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := New(x, Config{Eta: 50, Backtrack: true})
	if _, err := e.Run(6000, nil); err != nil {
		t.Fatal(err)
	}
	if e.Backtracks() == 0 {
		t.Fatal("hostile eta never backtracked")
	}
	if e.Eta() >= 50 {
		t.Fatalf("eta did not shrink: %g", e.Eta())
	}
	last := e.Usage()
	if last.Utility() < 0.80*ref.Utility {
		t.Fatalf("adaptive converged to %g, reference %g", last.Utility(), ref.Utility)
	}
	if ok, _ := last.Feasible(); !ok {
		t.Fatal("adaptive final point infeasible")
	}
}

func TestAdaptiveMatchesFixedEtaQuality(t *testing.T) {
	// On the E5-style steep instance a fixed η = 0.04 limit-cycles; the
	// adaptive engine must do at least as well as the well-tuned fixed
	// step.
	x := randomExtended(t, 23)
	fixed := New(x, Config{Eta: 0.01})
	traceFixed, err := fixed.Run(4000, nil)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := New(x, Config{Backtrack: true})
	if _, err := adaptive.Run(4000, nil); err != nil {
		t.Fatal(err)
	}
	fixedU := traceFixed[len(traceFixed)-1].Utility
	if got := adaptive.Usage().Utility(); got < 0.95*fixedU {
		t.Fatalf("adaptive %g well below tuned fixed %g", got, fixedU)
	}
}

func TestAdaptiveEtaGrowsOnEasyInstance(t *testing.T) {
	// Plenty of capacity and a tiny starting step: the controller must
	// grow η (descents accumulate) rather than stay at the floor.
	p, err := randnet.Generate(randnet.Config{
		Seed: 5, Nodes: 12, Commodities: 2, Layers: 3,
		CapMin: 500, CapMax: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	e := New(x, Config{Eta: 0.001, Backtrack: true})
	if _, err := e.Run(2000, nil); err != nil {
		t.Fatal(err)
	}
	if e.Eta() <= 0.001 {
		t.Fatalf("eta never grew: %g", e.Eta())
	}
}

// TestBacktrackingMatchesReferenceLoop pins Config.Backtrack to the
// rule the separate adaptive engine applied, written out here on top of
// the fixed-η path: a one-step fixed engine warm-started from the
// current routing proposes, and the loop below accepts, rejects, grows
// and shrinks. φ bits, the η sequence and the backtrack count must
// agree at every step.
func TestBacktrackingMatchesReferenceLoop(t *testing.T) {
	instances := []struct {
		name string
		x    *transform.Extended
	}{
		{"E4", buildInstance(t, randnet.Config{Seed: 2, Nodes: 40, Commodities: 3})},
		{"E6", buildInstance(t, randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})},
		{"seed13", randomExtended(t, 13)},
		{"seed17", randomExtended(t, 17)},
		{"seed23", randomExtended(t, 23)},
	}
	for _, in := range instances {
		for _, eta0 := range []float64{0.04, 50} {
			for _, workers := range []int{1, 4} {
				e := New(in.x, Config{Eta: eta0, Backtrack: true, Workers: workers})

				r := flow.NewInitial(in.x)
				eta, descents, backtracks := eta0, 0, 0
				cost := flow.Evaluate(r).TotalCost()
				for i := 0; i < 300; i++ {
					e.Step()

					proposer, err := NewFrom(in.x, r, Config{Eta: eta, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					proposer.Step()
					if c := proposer.Usage().TotalCost(); c <= cost+1e-12 {
						r, cost = proposer.Routing(), c
						if descents++; descents >= 20 {
							descents = 0
							if eta*1.05 <= 1 {
								eta *= 1.05
							}
						}
					} else {
						backtracks++
						descents = 0
						if eta*0.5 >= 1e-5 {
							eta *= 0.5
						}
					}

					if e.Eta() != eta || e.Backtracks() != backtracks {
						t.Fatalf("%s eta0=%g workers=%d step %d: eta %v backtracks %d, reference %v %d",
							in.name, eta0, workers, i, e.Eta(), e.Backtracks(), eta, backtracks)
					}
					for j := range r.Phi {
						if k := sameBits(e.Routing().Phi[j], r.Phi[j]); k >= 0 {
							t.Fatalf("%s eta0=%g workers=%d step %d: φ[%d][%d] = %v, reference %v",
								in.name, eta0, workers, i, j, k, e.Routing().Phi[j][k], r.Phi[j][k])
						}
					}
				}
				if eta0 == 50 && backtracks == 0 {
					t.Fatalf("%s: hostile eta never backtracked; the test exercised one branch only", in.name)
				}
			}
		}
	}
}
