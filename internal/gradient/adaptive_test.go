package gradient

import (
	"math"
	"testing"

	"repro/internal/randnet"
	"repro/internal/refopt"
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
	if err := run(e, 6000); err != nil {
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
	traceFixed, err := traceRun(fixed, 4000)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := New(x, Config{Backtrack: true})
	if err := run(adaptive, 4000); err != nil {
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
	x := buildInstance(t, randnet.Config{Seed: 5, Nodes: 12, Commodities: 2, Layers: 3, CapMin: 500, CapMax: 1000})
	e := New(x, Config{Eta: 0.001, Backtrack: true})
	if err := run(e, 2000); err != nil {
		t.Fatal(err)
	}
	if e.Eta() <= 0.001 {
		t.Fatalf("eta never grew: %g", e.Eta())
	}
}
