package gradient

import (
	"context"
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/utility"
)

// solveToConvergence runs the engine until near-stationary.
func solveToConvergence(t *testing.T, eng *Engine, iters int) *flow.Usage {
	t.Helper()
	if _, _, err := eng.Run(context.Background(), iters, 0, new(DivergenceDetector), func(StepInfo) bool {
		return CheckStationarity(flow.Evaluate(eng.Routing())) < 1e-4
	}); err != nil {
		t.Fatal(err)
	}
	return eng.Solution()
}

// TestAttributeCapacityConstrained: a single path whose server can
// carry only half the offered rate. The attribution must blame that
// server (binding, positive shadow price) and show the marginal
// utility priced against the path cost (gap ≈ 0 at the interior
// optimum where admission is cut by capacity).
func TestAttributeCapacityConstrained(t *testing.T) {
	x := singlePath(t, 10, 40, 20) // server cap 10, λ = 20
	eng := New(x, Config{Eta: 0.04})
	u := solveToConvergence(t, eng, 8000)

	at := AttributeAll(u)[0]
	if at.Offered != 20 {
		t.Fatalf("offered = %g, want 20", at.Offered)
	}
	if at.Admitted >= at.Offered-1 {
		t.Fatalf("instance not capacity-limited: admitted %g of %g", at.Admitted, at.Offered)
	}
	if len(at.Binding) == 0 {
		t.Fatalf("capacity-constrained commodity has no binding nodes: %+v", at)
	}
	top := at.Binding[0]
	if top.Price <= 0 {
		t.Fatalf("binding node has non-positive shadow price: %+v", top)
	}
	if name := u.R.X.Name(top.Node); name != "src" {
		t.Fatalf("bottleneck should be the tight server src, got %q (util %.3f)", name, top.Utilization)
	}
	if top.Utilization <= 0.5 || top.Utilization > 1.01 {
		t.Fatalf("bottleneck utilization %.3f implausible for a binding server", top.Utilization)
	}
	// At a converged interior point the admit-vs-reject marginals agree:
	// U'(a) ≈ path cost.
	if rel := math.Abs(at.Gap) / math.Max(1, at.MarginalUtility); rel > 0.1 {
		t.Fatalf("marginal-utility gap not closed at convergence: U'=%g pathCost=%g gap=%g",
			at.MarginalUtility, at.PathCost, at.Gap)
	}
}

// TestAttributeUnconstrained: generous capacities, full admission. The
// gap must be positive (utility beats cost, admit everything) and no
// resource reported binding.
func TestAttributeUnconstrained(t *testing.T) {
	x := singlePath(t, 200, 400, 10) // huge headroom
	eng := New(x, Config{Eta: 0.04})
	u := solveToConvergence(t, eng, 6000)

	at := AttributeAll(u)[0]
	if at.Admitted < at.Offered-0.05 {
		t.Fatalf("uncongested instance should admit ~everything: %g of %g", at.Admitted, at.Offered)
	}
	if at.Gap <= 0 {
		t.Fatalf("fully-admitted commodity must have positive gap, got %g", at.Gap)
	}
	if len(at.Binding) != 0 {
		t.Fatalf("no resource should be binding with 20x headroom: %+v", at.Binding)
	}
}

// TestAttributeAllPicksTheTightPath: in the twoPath instance the cheap
// path runs through server a (cap 12); pushing λ = 40 saturates it.
// The attribution's binding list must include a.
func TestAttributeAllPicksTheTightPath(t *testing.T) {
	x := twoPath(t, 40, utility.Log{Weight: 30, Scale: 1})
	eng := New(x, Config{Eta: 0.04})
	u := solveToConvergence(t, eng, 8000)

	all := AttributeAll(u)
	if len(all) != 1 {
		t.Fatalf("AttributeAll returned %d entries, want 1", len(all))
	}
	found := false
	for _, bn := range all[0].Binding {
		if u.R.X.Name(bn.Node) == "a" {
			found = true
			if bn.Price <= 0 {
				t.Fatalf("tight server a has zero price: %+v", bn)
			}
		}
	}
	if !found {
		t.Fatalf("tight server a missing from binding set: %+v", all[0].Binding)
	}
}

// TestEngineAttributionMatchesBareUsage: an engine's attributor, which
// explains in the engine's own workspaces at the prices its node pass
// left, gives what a fresh attributor over a fresh evaluation of its
// routing gives, bit for bit. The serving engine's η is large enough to
// be rejected, and the check runs after accepted and after rejected
// steps alike: a rejection leaves the proposal's forecast and prices in
// the workspaces until the engine forecasts its routing again.
func TestEngineAttributionMatchesBareUsage(t *testing.T) {
	x := build(t, sparseProblem(t, 200), nil)
	e := New(x, Config{Eta: 0.5, Backtrack: true, DisableBlocking: true, Momentum: 0.9})
	var got, want Attribution
	accepted, rejected, bindings := 0, 0, 0
	for step := 0; step < 60; step++ {
		before := e.Backtracks()
		e.Step()
		if e.Backtracks() > before {
			rejected++
		} else {
			accepted++
		}
		engine, bare := e.Attributor(), NewAttributor(e.Solution())
		for j := range x.Sub {
			engine.Attribute(j, &got)
			bare.Attribute(j, &want)
			if !sameAttribution(&got, &want) {
				t.Fatalf("step %d (rejected: %v), commodity %d: engine %+v, bare usage %+v",
					step, e.Backtracks() > before, j, got, want)
			}
			bindings += len(got.Binding)
		}
	}
	if accepted == 0 || rejected == 0 || bindings == 0 {
		t.Fatalf("%d accepted and %d rejected steps, %d bindings; want both kinds of step and some bindings checked",
			accepted, rejected, bindings)
	}
}

// sameAttribution reports whether a and b agree bit for bit.
func sameAttribution(a, b *Attribution) bool {
	if !sameFloat(a.Offered, b.Offered) || !sameFloat(a.Admitted, b.Admitted) ||
		!sameFloat(a.Utility, b.Utility) || !sameFloat(a.MarginalUtility, b.MarginalUtility) ||
		!sameFloat(a.PathCost, b.PathCost) || !sameFloat(a.Gap, b.Gap) || len(a.Binding) != len(b.Binding) {
		return false
	}
	for i, p := range a.Binding {
		q := b.Binding[i]
		if p.Node != q.Node || !sameFloat(p.Utilization, q.Utilization) || !sameFloat(p.Price, q.Price) {
			return false
		}
	}
	return true
}
