package gradient

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

// The reference step: Engine.Step under Config.Backtrack as it ran
// before a serving step carried the accepted proposal's evaluation
// forward. Every step forecasts the routing afresh (flow.Evaluate),
// measures it with Usage.TotalCost and Usage.Feasible, prices every
// extended node, runs the sweep with the loss derivative evaluated in
// the edge loop, and judges the proposal by the TotalCost of a second
// fresh forecast. It is kept here, test-side, as the oracle the carried
// evaluation, the capacitated-node walks and the hoisted derivative are
// compared against bit for bit (the kernel_parity_test.go pattern).
//
// With mu > 0 it also takes the heavy-ball step its own way: it keeps
// the whole previous routing instead of the engine's branch-only slabs,
// and adds the term, applies the restart rule and projects in a
// separate pass over each row after Γ.

type refStepper struct {
	x          *transform.Extended
	ext        []float64 // the external usage, as the engine has it installed
	r          *flow.Routing
	eta        float64
	descents   int
	backtracks int
	iter       int

	mu    float64
	prev  *flow.Routing // the routing accepted before r, while heavy
	heavy bool
	// Node updates that took the term, that restarted, and that the
	// projection clipped: the μ case needs all three.
	pushed, restarted, clipped int
}

// refSweep is sweep with tagging off and Loss.Deriv inside the edge
// loop, reading the difference link's flow per visit.
func refSweep(u *flow.Usage, j int, price, rho, linkD []float64) {
	x := u.R.X
	sg := &x.Sub[j]
	phi := u.R.Phi[j]
	for _, ln := range sg.RevTopo() {
		if ln == sg.Sink {
			rho[ln] = 0
			continue
		}
		p := price[sg.Nodes[ln]]
		r := 0.0
		for _, le := range sg.Out(ln) {
			var loss float64
			if le == sg.DiffLink {
				loss = x.Commodities[j].Loss.Deriv(u.EdgeFlow(j, le))
			}
			d := (p+loss)*sg.Cost[le] + sg.Beta[le]*rho[sg.Head[le]]
			linkD[le] = d
			r += phi[le] * d
		}
		rho[ln] = r
	}
}

func (s *refStepper) step() StepInfo {
	x := s.x
	u := flow.Evaluate(s.r)
	info := StepInfo{
		Iteration: s.iter,
		Utility:   u.Utility(),
		Cost:      totalCostAt(u, s.ext),
		Feasible:  feasibleAt(u, s.ext),
	}
	price := make([]float64, x.NumNodes())
	for n := range price {
		price[n] = x.ShadowPrice(graph.NodeID(n), loadAt(u, s.ext, n))
	}
	next := s.r.Clone()
	for j := range x.Sub {
		sg := &x.Sub[j]
		rho, linkD := make([]float64, sg.NumNodes()), make([]float64, sg.NumEdges())
		refSweep(u, j, price, rho, linkD)
		gamma(u, j, linkD, nil, s.eta, 0, nil, next.Phi[j])
		if s.heavy {
			s.heavyBall(j, next.Phi[j])
		}
	}
	if totalCostAt(flow.Evaluate(next), s.ext) <= info.Cost+1e-12 {
		s.prev, s.r = s.r, next
		s.heavy = s.mu > 0
		s.descents++
		if s.descents >= growAfter {
			s.descents = 0
			if grown := s.eta * etaGrow; grown <= etaMax {
				s.eta = grown
			}
		}
	} else {
		s.heavy = false
		s.backtracks++
		s.descents = 0
		if shrunk := s.eta * etaShrink; shrunk >= etaMin {
			s.eta = shrunk
		}
	}
	s.iter++
	return info
}

// heavyBall moves commodity j's Γ row next by mu·(φ_k − φ_{k−1}) at
// every branch node whose Γ step does not turn against its last one,
// then projects that node's out-edges back onto their simplex.
func (s *refStepper) heavyBall(j int, next []float64) {
	sg := &s.x.Sub[j]
	phi, prev := s.r.Phi[j], s.prev.Phi[j]
	for _, ln := range sg.Branch() {
		outs := sg.Out(ln)
		turn := 0.0
		for _, le := range outs {
			turn += (next[le] - phi[le]) * (phi[le] - prev[le])
		}
		if turn < 0 {
			s.restarted++
			continue
		}
		s.pushed++
		for _, le := range outs {
			next[le] += s.mu * (phi[le] - prev[le])
		}
		if refProject(next, outs) {
			s.clipped++
		}
	}
}

// refProject is the simplex projection written over explicit index
// sets: negatives out of the set, their mass taken evenly from the
// members left, until the set stops shrinking. It reports whether it
// clipped anything.
func refProject(v []float64, outs []int32) (clipped bool) {
	set := append([]int32(nil), outs...)
	for {
		var keep []int32
		lost := 0.0
		for _, i := range set {
			if v[i] < 0 {
				lost += -v[i]
				v[i] = 0
			} else if v[i] > 0 {
				keep = append(keep, i)
			}
		}
		if lost == 0 {
			return clipped
		}
		clipped = true
		for _, i := range keep {
			v[i] -= lost / float64(len(keep))
		}
		set = keep
	}
}

// restart is Engine.Restart's effect on the reference: the counters
// and the momentum start again, η and the routing stay.
func (s *refStepper) restart() {
	s.descents, s.backtracks, s.iter = 0, 0, 0
	s.heavy = false
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestServingStepMatchesReferenceStep is the licence for the carried
// evaluation: a serving engine (backtracking, tags off) on one shard of
// a sparse instance reproduces the reference step bit for bit — every
// StepInfo field, every φ row, η and the rejection count — through a
// step scale large enough to be rejected, external usage rewritten in
// place between turns of 25 steps the way a coordinator rewrites it
// (with the turn-start Engine.SetExternal it makes), and a
// reparameterization followed by Engine.Restart. It does so without
// momentum and with the serving mode's heavy-ball μ 0.9. On the sparse
// instances it runs long enough for the screen to skip rows before the
// reparameterization and again after the Restart, and fails if it skips
// none; the branched instance's rows do not reach the vertices the
// screen needs.
//
// Two more instances license the sweep's carried ρ and the wave's
// concrete-type utility calls. "branched" is a layered instance whose
// member DAGs fork, so within one reverse order a node's one out-edge
// may or may not lead to the node visited just before it: the sweep
// takes the carried ρ at some and reloads it at others. "mixed" gives
// the sparse chains Linear, Log and Sqrt utilities in turn, so the
// Linear path and the interface path both run in every wave.
func TestServingStepMatchesReferenceStep(t *testing.T) {
	sparse, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 1200})
	if err != nil {
		t.Fatal(err)
	}
	branched, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 40, Layers: 5, Commodities: 6})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 1200})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range mixed.Commodities {
		var u utility.Function = utility.Linear{Slope: 1}
		switch j % 3 {
		case 1:
			u = utility.Log{Weight: 40, Scale: 10}
		case 2:
			u = utility.Sqrt{Weight: 10, Shift: 1}
		}
		if err := mixed.SetUtility(c.Name, u); err != nil {
			t.Fatal(err)
		}
	}
	for _, inst := range []struct {
		prefix string
		p      *stream.Problem
		every  int  // the shard holds every every-th commodity
		forks  bool // some single-out-edge node's head was not visited last
		mixes  bool // Linear and non-Linear utilities
	}{{"", sparse, 4, false, false}, {"branched,", branched, 1, true, false}, {"mixed,", mixed, 4, false, true}} {
		var subset []int
		for gi := range inst.p.Commodities {
			if gi%inst.every == 0 {
				subset = append(subset, gi)
			}
		}
		x, err := transform.Build(inst.p, transform.Options{Epsilon: 0.2, Commodities: subset})
		if err != nil {
			t.Fatal(err)
		}
		switch carried, reloaded := chainLinks(x); {
		case carried == 0:
			t.Fatalf("%q: no node's one out-edge leads to the node visited before it", inst.prefix)
		case inst.forks && reloaded == 0:
			t.Fatalf("%q: all %d single-out-edge nodes lead to the node visited before them", inst.prefix, carried)
		}
		if inst.mixes {
			linear := 0
			for _, c := range x.Commodities {
				if _, ok := c.Utility.(utility.Linear); ok {
					linear++
				}
			}
			if linear == 0 || linear == len(x.Commodities) {
				t.Fatalf("%q: %d of %d commodities Linear; the case needs both paths", inst.prefix, linear, len(x.Commodities))
			}
		}
		servingStepParity(t, inst.prefix, x, inst.p, subset, !inst.forks)
	}
}

// chainLinks counts, over every commodity's reverse topological order,
// the nodes with one member out-edge whose head is the node visited
// just before (the sweep carries its ρ) and those whose head is not
// (the sweep reloads it).
func chainLinks(x *transform.Extended) (carried, reloaded int) {
	for j := range x.Sub {
		sg := &x.Sub[j]
		last := int32(-1)
		for _, ln := range sg.RevTopo() {
			if outs := sg.Out(ln); len(outs) == 1 {
				if sg.Head[outs[0]] == last {
					carried++
				} else {
					reloaded++
				}
			}
			last = ln
		}
	}
	return carried, reloaded
}

// servingStepParity runs TestServingStepMatchesReferenceStep's cases on
// x, the shard of p0 that holds the commodities in subset, naming each
// subtest after prefix. With screens set the screen must skip rows both
// before the reparameterization and after the Restart that follows it.
func servingStepParity(t *testing.T, prefix string, x *transform.Extended, p0 *stream.Problem, subset []int, screens bool) {
	ext := make([]float64, x.SharedNodes)
	// setExternal rewrites the installed vector in place: turn k loads
	// the capacitated nodes with a share of their capacity that rises
	// and falls from turn to turn.
	setExternal := func(turn int) {
		for i := range ext {
			if c := x.Capacity[i]; !math.IsInf(c, 1) {
				ext[i] = c * 0.05 * float64((i+3*turn)%9) / 8
			}
		}
	}
	setExternal(0)

	// The subtest names keep a "workers=1" suffix so that their IDs
	// match earlier test reports.
	for _, mu := range []float64{0, 0.9} {
		name := "workers=1"
		if mu > 0 {
			name = fmt.Sprintf("mu=%v,workers=1", mu)
		}
		t.Run(prefix+name, func(t *testing.T) {
			const eta0 = 0.5
			eng := New(x, Config{Eta: eta0, Backtrack: true, DisableBlocking: true, Momentum: mu})
			ref := &refStepper{x: x, ext: ext, r: flow.NewInitial(x), eta: eta0, mu: mu}
			accepted, infeasible, step, screened := 0, 0, 0, 0
			turns := func(n int) {
				t.Helper()
				for turn := 0; turn < n; turn++ {
					setExternal(step/25 + 1)
					eng.SetExternal(ext)
					for i := 0; i < 25; i++ {
						screened += eng.Screened()
						if k := sameBits(admittedRates(eng.Routing()), admittedRates(ref.r)); k >= 0 {
							t.Fatalf("step %d: admitted[%d] = %v, reference %v", step, k, eng.Routing().AdmittedRate(k), ref.r.AdmittedRate(k))
						}
						got := eng.Step()
						before := ref.backtracks
						want := ref.step()
						if ref.backtracks == before {
							accepted++
						}
						if got.Iteration != want.Iteration || !sameFloat(got.Utility, want.Utility) ||
							!sameFloat(got.Cost, want.Cost) || got.Feasible != want.Feasible {
							t.Fatalf("step %d: StepInfo {%d %v %v %v}, reference {%d %v %v %v}", step,
								got.Iteration, got.Utility, got.Cost, got.Feasible,
								want.Iteration, want.Utility, want.Cost, want.Feasible)
						}
						if eng.Eta() != ref.eta || eng.Backtracks() != ref.backtracks {
							t.Fatalf("step %d: η %v after %d rejections, reference %v after %d",
								step, eng.Eta(), eng.Backtracks(), ref.eta, ref.backtracks)
						}
						for j := range x.Sub {
							if k := sameBits(eng.Routing().Phi[j], ref.r.Phi[j]); k >= 0 {
								t.Fatalf("step %d commodity %d: φ[%d] = %v, reference %v",
									step, j, k, eng.Routing().Phi[j][k], ref.r.Phi[j][k])
							}
						}
						if !want.Feasible {
							infeasible++
						}
						step++
					}
				}
			}

			turns(8)
			screenedBefore := screened
			rejected := ref.backtracks
			// A capacity cut and a rate change, installed in place.
			p := p0.Clone()
			for i, kind := range p.Net.Kinds {
				if kind == stream.Processing {
					if err := p.Net.SetCapacity(p.Net.Names[i], p.Net.Capacity[i]/2); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			c := p.Commodities[subset[1]]
			if err := p.SetMaxRate(c.Name, c.MaxRate*1.5); err != nil {
				t.Fatal(err)
			}
			if ch, err := x.Changes(p, subset); ch != transform.Parameters || err != nil {
				t.Fatalf("Changes = %v, %v", ch, err)
			}
			x.Reparameterize(p, subset)
			eng.Restart()
			ref.restart()
			turns(6)
			rejected += ref.backtracks

			if accepted == 0 || rejected == 0 {
				t.Fatalf("%d accepted and %d rejected steps: the case needs both", accepted, rejected)
			}
			if mu > 0 && (ref.pushed == 0 || ref.restarted == 0 || ref.clipped == 0) {
				t.Fatalf("heavy-ball node updates: %d pushed, %d restarted, %d clipped; the case needs all three",
					ref.pushed, ref.restarted, ref.clipped)
			}
			if screens && (screenedBefore == 0 || screened == screenedBefore) {
				t.Fatalf("%d row-steps screened before the cut and %d after: the case needs both",
					screenedBefore, screened-screenedBefore)
			}
			t.Logf("%d steps: %d accepted, %d rejected, %d measured infeasible, %d row-steps screened",
				step, accepted, rejected, infeasible, screened)

			// Put the problem back for the next subtest.
			x.Reparameterize(p0, subset)
			setExternal(0)
		})
	}
}
