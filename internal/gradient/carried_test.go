package gradient

import (
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
)

// TestCarriedStateMatchesFreshEvaluation holds what the engine carries
// from one step to the next — the forecast the wave writes in place,
// the admitted rates, utility and loss it measures on the way, the node
// pass that judges them, and the spare routing Γ seeds only at branch
// nodes — against a fresh evaluation of the routing it holds. After
// every Step the engine's usage must be flow.Evaluate of its routing
// bit for bit, so a rejected proposal's forecast may not stand; the
// StepInfo must be a fresh evaluation of the routing the step started
// from; and the spare must equal the routing off the branch nodes'
// out-edges. Every turn start rewrites the external usage in place and
// calls SetExternal and Stationarity, whose report must be
// CheckStationarity's on a fresh forecast at the same external usage.
// The run covers the serving mode (backtracking, no tags, μ 0.9, an η
// large enough to be rejected), the paper mode with tags, and a
// Reparameterize + Restart.
// The subtest names keep a ",workers=1" suffix so that their IDs match
// earlier test reports.
func TestCarriedStateMatchesFreshEvaluation(t *testing.T) {
	sparse, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 600})
	if err != nil {
		t.Fatal(err)
	}
	var subset []int
	for gi := range sparse.Commodities {
		if gi%3 == 0 {
			subset = append(subset, gi)
		}
	}
	x, err := transform.Build(sparse, transform.Options{Epsilon: 0.2, Commodities: subset})
	if err != nil {
		t.Fatal(err)
	}
	ext := make([]float64, x.SharedNodes)
	setExternal := func(turn int) {
		for i := range ext {
			if c := x.Capacity[i]; !math.IsInf(c, 1) {
				ext[i] = c * 0.05 * float64((i+5*turn)%7) / 6
			}
		}
	}
	// onBranch[j][le] marks the out-edges of commodity j's branch
	// nodes: the only entries Γ writes.
	onBranch := make([][]bool, len(x.Sub))
	for j := range x.Sub {
		sg := &x.Sub[j]
		onBranch[j] = make([]bool, sg.NumEdges())
		for _, ln := range sg.Branch() {
			for _, le := range sg.Out(ln) {
				onBranch[j][le] = true
			}
		}
	}

	modes := []struct {
		name string
		cfg  Config
	}{
		{"serving", Config{Eta: 0.5, Backtrack: true, DisableBlocking: true, Momentum: 0.9}},
		{"paper", Config{Eta: 0.04}},
	}
	for _, mode := range modes {
		t.Run(mode.name+",workers=1", func(t *testing.T) {
			setExternal(0)
			e := New(x, mode.cfg)
			step := 0
			turns := func(n int) {
				t.Helper()
				for turn := 0; turn < n; turn++ {
					setExternal(step/25 + 1)
					e.SetExternal(ext)
					got, want := e.Stationarity(), checkStationarityAt(flow.Evaluate(e.Routing()), ext)
					if !sameFloat(got, want) {
						t.Fatalf("step %d: Stationarity %v, fresh %v", step, got, want)
					}
					for i := 0; i < 25; i++ {
						checkStep(t, e, ext, step, onBranch)
						step++
					}
				}
			}
			turns(4)
			// The commodity admitting the most is offered more, so its
			// a_j, its utility and its loss term all move, and every
			// capacity rises, so the cost they enter stays finite.
			hot := 0
			for j := range x.Sub {
				if e.Routing().AdmittedRate(j) > e.Routing().AdmittedRate(hot) {
					hot = j
				}
			}
			p := sparse.Clone()
			c := p.Commodities[subset[hot]]
			if err := p.SetMaxRate(c.Name, c.MaxRate*1.25); err != nil {
				t.Fatal(err)
			}
			for i, kind := range p.Net.Kinds {
				if kind == stream.Processing {
					if err := p.Net.SetCapacity(p.Net.Names[i], p.Net.Capacity[i]*1.2); err != nil {
						t.Fatal(err)
					}
				}
			}
			rejected := e.Backtracks()
			x.Reparameterize(p, subset)
			defer x.Reparameterize(sparse, subset)
			if a, cost := e.Routing().AdmittedRate(hot), totalCostAt(flow.Evaluate(e.Routing()), ext); a == 0 || math.IsInf(cost, 0) {
				t.Fatalf("after the reparameterization a_%d = %v and the cost is %v; the case needs a positive rate at a finite cost", hot, a, cost)
			}
			e.Restart()
			turns(2)
			rejected += e.Backtracks()
			if mode.cfg.Backtrack && (rejected == 0 || rejected == step) {
				t.Fatalf("%d of %d steps rejected; the case needs both", rejected, step)
			}
			t.Logf("%d steps, %d rejected", step, rejected)
		})
	}
}

// checkStep runs one Step of e, whose external usage is ext, and checks
// it against fresh evaluations (TestCarriedStateMatchesFreshEvaluation).
func checkStep(t *testing.T, e *Engine, ext []float64, step int, onBranch [][]bool) {
	t.Helper()
	start := flow.Evaluate(e.Routing().Clone())
	info := e.Step()
	cost, feasible := totalCostAt(start, ext), feasibleAt(start, ext)
	if !sameFloat(info.Utility, start.Utility()) || !sameFloat(info.Cost, cost) || info.Feasible != feasible {
		t.Fatalf("step %d: StepInfo {%v %v %v}, fresh evaluation {%v %v %v}", step,
			info.Utility, info.Cost, info.Feasible, start.Utility(), cost, feasible)
	}
	// The admitted rates the engine carries into its next Step are its
	// routing's.
	for j, a := range e.admitted {
		if want := e.Routing().AdmittedRate(j); !sameFloat(a, want) {
			t.Fatalf("step %d: carried admitted[%d] = %v, routing's %v", step, j, a, want)
		}
	}

	got, fresh := e.Usage(), flow.Evaluate(e.Routing())
	if k := sameBits(got.FNode, fresh.FNode); k >= 0 {
		t.Fatalf("step %d: FNode[%d] = %v, fresh %v", step, k, got.FNode[k], fresh.FNode[k])
	}
	for j := range fresh.T {
		if k := sameBits(got.T[j], fresh.T[j]); k >= 0 {
			t.Fatalf("step %d commodity %d: T[%d] = %v, fresh %v", step, j, k, got.T[j][k], fresh.T[j][k])
		}
	}
	if got.R != e.Routing() {
		t.Fatalf("step %d: usage bound to another routing", step)
	}
	for j, row := range e.Routing().Phi {
		for le, v := range row {
			if !onBranch[j][le] && !sameFloat(e.spare.Phi[j][le], v) {
				t.Fatalf("step %d commodity %d: spare φ[%d] = %v off the branch nodes, routing %v",
					step, j, le, e.spare.Phi[j][le], v)
			}
		}
	}
}
