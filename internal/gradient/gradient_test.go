package gradient

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/refopt"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

// singlePath builds dummy → src → bw → sink with the given capacities
// and offered rate, linear utility.
func singlePath(t *testing.T, srcCap, bw, lambda float64) *transform.Extended {
	t.Helper()
	net := stream.NewNetwork()
	src, _ := net.AddServer("src", srcCap)
	sink, _ := net.AddSink("sink")
	e, _ := net.AddLink(src, sink, bw)
	p := stream.NewProblem(net)
	c, err := p.AddCommodity("S", src, sink, lambda, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetEdge(c, e, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// twoPath builds src -> {a,b} -> sink with asymmetric costs so the
// optimizer must prefer one path.
func twoPath(t *testing.T, lambda float64, util utility.Function) *transform.Extended {
	t.Helper()
	net := stream.NewNetwork()
	src, _ := net.AddServer("src", 50)
	a, _ := net.AddServer("a", 12)
	b, _ := net.AddServer("b", 40)
	sink, _ := net.AddSink("sink")
	e1, _ := net.AddLink(src, a, 60)
	e2, _ := net.AddLink(src, b, 60)
	e3, _ := net.AddLink(a, sink, 60)
	e4, _ := net.AddLink(b, sink, 60)
	p := stream.NewProblem(net)
	c, err := p.AddCommodity("S", src, sink, lambda, util)
	if err != nil {
		t.Fatal(err)
	}
	for e, params := range map[graph.EdgeID]stream.EdgeParams{
		e1: {Beta: 1, Cost: 1},
		e2: {Beta: 1, Cost: 1},
		e3: {Beta: 1, Cost: 1}, // path a: cheap but tight (cap 12)
		e4: {Beta: 1, Cost: 3}, // path b: pricier per unit
	} {
		if err := p.SetEdge(c, e, params); err != nil {
			t.Fatal(err)
		}
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// phi points at φ for commodity j on extended edge e, which must be a
// member edge of r's commodity j.
func phi(r *flow.Routing, j int, e graph.EdgeID) *float64 {
	return &r.Phi[j][graph.Local(r.X.Sub[j].Edges, e)]
}

// tAt returns t_n(j) for extended node n, zero when n is not a member
// node.
func tAt(u *flow.Usage, j int, n graph.NodeID) float64 {
	if ln := graph.Local(u.R.X.Sub[j].Nodes, n); ln >= 0 {
		return u.T[j][ln]
	}
	return 0
}

func TestMarginalMatchesFiniteDifference(t *testing.T) {
	// Eq. (10): ∂A/∂φ_ik(j) = t_i(j)·LinkD[e]. Verify by bumping φ on
	// every member edge and differencing the total cost.
	x := twoPath(t, 20, utility.Log{Weight: 10, Scale: 1})
	r := flow.NewInitial(x)
	// A non-trivial interior point: admit 60%, lean 70/30 toward a.
	c := &x.Commodities[0]
	sg := &x.Sub[0]
	*phi(r, 0, c.InputLink) = 0.6
	*phi(r, 0, c.DiffLink) = 0.4
	src := c.Source
	var srcOuts []graph.EdgeID
	for _, e := range extendedGraph(x).Out(src) {
		if graph.Local(x.Sub[0].Edges, e) >= 0 {
			srcOuts = append(srcOuts, e)
		}
	}
	*phi(r, 0, srcOuts[0]) = 0.7
	*phi(r, 0, srcOuts[1]) = 0.3

	u := flow.Evaluate(r)
	m := ComputeMarginals(u, 0)

	const h = 1e-7
	base := u.TotalCost()
	for _, e := range x.Sub[0].Edges {
		tail := x.Edge(e).From
		ti := tAt(u, 0, tail)
		if ti == 0 {
			continue // derivative information is 0·d; skip
		}
		bumped := r.Clone()
		*phi(bumped, 0, e) += h
		got := (flow.Evaluate(bumped).TotalCost() - base) / h
		want := ti * m.LinkDAt(sg, e)
		if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
			t.Errorf("edge %d (%s→%s): dA/dphi = %g, analytic %g",
				e, x.Name(x.Edge(e).From), x.Name(x.Edge(e).To), got, want)
		}
	}
}

func TestRhoZeroAtSinkAndCompositionality(t *testing.T) {
	// Eq. (9): rho_i = Σ φ_e · LinkD[e]. Spot-check the recursion.
	x := twoPath(t, 20, utility.Linear{Slope: 1})
	r := flow.NewInitial(x)
	c := &x.Commodities[0]
	sg := &x.Sub[0]
	*phi(r, 0, c.InputLink) = 0.5
	*phi(r, 0, c.DiffLink) = 0.5
	u := flow.Evaluate(r)
	m := ComputeMarginals(u, 0)

	if m.RhoAt(sg, c.Sink) != 0 {
		t.Fatalf("rho(sink) = %g, want 0", m.RhoAt(sg, c.Sink))
	}
	g := extendedGraph(x)
	for n := 0; n < x.NumNodes(); n++ {
		node := graph.NodeID(n)
		if node == c.Sink {
			continue
		}
		sum, any := 0.0, false
		for _, e := range g.Out(node) {
			if graph.Local(x.Sub[0].Edges, e) >= 0 {
				sum += *phi(r, 0, e) * m.LinkDAt(sg, e)
				any = true
			}
		}
		if any && math.Abs(m.RhoAt(sg, node)-sum) > 1e-12 {
			t.Fatalf("rho(%s) = %g, want %g", x.Name(node), m.RhoAt(sg, node), sum)
		}
	}
}

func TestDiffLinkMarginalIsMarginalUtility(t *testing.T) {
	// On the difference link, LinkD = Y'(λ−a) = U'(a) (eq. 11).
	lambda := 20.0
	util := utility.Log{Weight: 10, Scale: 1}
	x := twoPath(t, lambda, util)
	r := flow.NewInitial(x)
	c := &x.Commodities[0]
	*phi(r, 0, c.InputLink) = 0.25
	*phi(r, 0, c.DiffLink) = 0.75
	u := flow.Evaluate(r)
	m := ComputeMarginals(u, 0)
	admitted := 0.25 * lambda
	if got, want := m.LinkDAt(&x.Sub[0], c.DiffLink), util.Deriv(admitted); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LinkD(diff) = %g, want U'(a) = %g", got, want)
	}
}

func TestGammaPreservesSimplex(t *testing.T) {
	x := twoPath(t, 20, utility.Linear{Slope: 1})
	e := New(x, Config{Eta: 0.1})
	for i := 0; i < 200; i++ {
		e.Step()
		if err := e.R.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestConvergesToFullAdmissionWhenUnconstrained(t *testing.T) {
	// Plenty of capacity: optimal admits everything (a* = λ = 5).
	x := singlePath(t, 100, 100, 5)
	e := New(x, Config{Eta: 0.5})
	trace, err := e.Run(3000, nil)
	if err != nil {
		t.Fatal(err)
	}
	final := trace[len(trace)-1]
	if final.Utility < 4.9 {
		t.Fatalf("final utility = %g, want ≈ 5", final.Utility)
	}
}

func TestConvergesToBarrierOptimumWhenConstrained(t *testing.T) {
	// λ = 20 into capacity 10 (src) with huge bandwidth: the barrier
	// optimum solves 1 = ε[D'_src(a) + D'_bw(a)]; with B = 1000 the bw
	// term is negligible and a* ≈ 10 − sqrt(0.2) ≈ 9.5528.
	x := singlePath(t, 10, 1000, 20)
	// Anneal: a large step reaches the neighborhood fast, then a small
	// step settles the oscillation band (§5's speed/stability trade).
	coarse := New(x, Config{Eta: 0.5})
	if _, err := coarse.Run(3000, nil); err != nil {
		t.Fatal(err)
	}
	fine, err := NewFrom(x, coarse.Routing(), Config{Eta: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := fine.Run(3000, nil)
	if err != nil {
		t.Fatal(err)
	}
	final := trace[len(trace)-1]
	want := 10 - math.Sqrt(0.2)
	if math.Abs(final.Admitted[0]-want) > 0.05 {
		t.Fatalf("admitted = %g, want ≈ %g", final.Admitted[0], want)
	}
	if !final.Feasible {
		t.Fatal("final point infeasible")
	}
}

func TestCostDecreasesMonotonically(t *testing.T) {
	x := twoPath(t, 20, utility.Linear{Slope: 1})
	e := New(x, Config{Eta: 0.04})
	trace, err := e.Run(2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Cost > trace[i-1].Cost+1e-9 {
			t.Fatalf("cost increased at iteration %d: %g -> %g", i, trace[i-1].Cost, trace[i].Cost)
		}
	}
}

func TestSplitsMatchBarrierOptimum(t *testing.T) {
	// With full admission (capacity is ample: marginal barrier cost at
	// a=20 is far below U' = 1) the split minimizes
	// 1/(12−t_a) + 1/(40−3·(20−t_a)), whose stationary point is
	// (3t_a−20)² = 3(12−t_a)² ⇒ t_a ≈ 8.6188.
	x := twoPath(t, 20, utility.Linear{Slope: 1})
	e := New(x, Config{Eta: 0.2})
	if _, err := e.Run(8000, nil); err != nil {
		t.Fatal(err)
	}
	u := e.Solution()
	aNode := graph.NodeID(1) // server "a"
	bNode := graph.NodeID(2) // server "b"
	if x.Name(aNode) != "a" || x.Name(bNode) != "b" {
		t.Fatal("node naming assumption broken")
	}
	admitted := u.AdmittedRate(0)
	if admitted < 19.5 {
		t.Fatalf("admitted = %g, want ≈ λ = 20", admitted)
	}
	wantA := (20 + 12*math.Sqrt(3)) / (3 + math.Sqrt(3))
	ta, tb := tAt(u, 0, aNode), tAt(u, 0, bNode)
	if math.Abs(ta-wantA) > 0.15 {
		t.Fatalf("t(a) = %g, want barrier optimum ≈ %g", ta, wantA)
	}
	if math.Abs(ta+tb-admitted) > 1e-6 {
		t.Fatalf("t(a)+t(b) = %g ≠ admitted %g", ta+tb, admitted)
	}
}

// longestPath is the test's own oracle for the quantity L of the
// paper's O(L) round analysis (§6): the number of edges on the longest
// path of the kept subgraph, by dynamic programming over its topological
// order.
// extendedGraph lays x's §3 graph out as a graph.Graph, edge IDs kept,
// for tests that walk its adjacency.
func extendedGraph(x *transform.Extended) *graph.Graph {
	g := graph.New(x.NumNodes(), x.NumEdges())
	g.AddNodes(x.NumNodes())
	for e := range graph.EdgeID(x.NumEdges()) {
		if _, err := g.AddEdge(x.Edge(e).From, x.Edge(e).To); err != nil {
			panic(err)
		}
	}
	return g
}

func longestPath(t *testing.T, g *graph.Graph, keep func(graph.EdgeID) bool) int {
	t.Helper()
	order, err := g.TopoSortFiltered(keep)
	if err != nil {
		t.Fatal(err)
	}
	depth := make([]int, g.NumNodes())
	best := 0
	for _, u := range order {
		for _, e := range g.Out(u) {
			if v := g.Edge(e).To; keep(e) && depth[u]+1 > depth[v] {
				depth[v] = depth[u] + 1
				best = max(best, depth[v])
			}
		}
	}
	return best
}

// TestStatsAccounting pins the per-iteration protocol cost T3 reports:
// one message per member edge in each of the two waves, and two waves
// as deep as the deepest commodity's longest member path. The oracle
// walks the full extended graph (longestPath over member edges) rather
// than reading the Subgraph's own Depth and NumEdges.
func TestStatsAccounting(t *testing.T) {
	type instance struct {
		name string
		x    *transform.Extended
		// want pins the hand-counted cost where there is one (messages,
		// rounds); zero leaves the oracle alone to decide.
		want [2]int
	}
	// twoPath's one commodity: 4 physical edges × 2 halves + 2 dummy
	// links = 10 member edges; the longest member path
	// dummy→src→bw→mid→bw→sink has 5.
	cases := []instance{{"two-path", twoPath(t, 20, utility.Linear{Slope: 1}), [2]int{20, 10}}}
	// T3's depth sweep: two commodities on layered networks.
	for _, seed := range []int64{1, 2, 3, 7} {
		for _, layers := range []int{3, 6, 9, 12, 18, 24} {
			p, err := randnet.Generate(randnet.Config{
				Seed: seed, Nodes: max(40, 2*layers), Layers: layers, Commodities: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, instance{name: fmt.Sprintf("seed=%d/layers=%d", seed, layers), x: x})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := tc.x
			members, depth := 0, 0
			g := extendedGraph(x)
			for j := range x.Sub {
				member := func(e graph.EdgeID) bool { return graph.Local(x.Sub[j].Edges, e) >= 0 }
				for e := 0; e < x.NumEdges(); e++ {
					if member(graph.EdgeID(e)) {
						members++
					}
				}
				depth = max(depth, longestPath(t, g, member))
			}
			if tc.want != [2]int{} && tc.want != [2]int{2 * members, 2 * depth} {
				t.Fatalf("oracle counts (%d, %d), hand count %v", 2*members, 2*depth, tc.want)
			}
			e := New(x, Config{})
			e.Step()
			s := e.Stats()
			if s.Iterations != 1 {
				t.Fatalf("iterations = %d, want 1", s.Iterations)
			}
			if s.Messages != 2*members {
				t.Fatalf("messages = %d, want 2 waves × %d member edges", s.Messages, members)
			}
			if s.Rounds != 2*depth {
				t.Fatalf("rounds = %d, want 2 waves × depth %d", s.Rounds, depth)
			}
		})
	}
}

func TestRunToTarget(t *testing.T) {
	x := singlePath(t, 100, 100, 5)
	e := New(x, Config{Eta: 0.5})
	_, hit, err := e.RunToTarget(5.0, 0.95, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if hit < 0 {
		t.Fatal("never reached 95% of optimum")
	}
	if hit > 4000 {
		t.Fatalf("took %d iterations, unexpectedly slow", hit)
	}
}

func TestLargeEtaDivergesOrOscillates(t *testing.T) {
	// §5: "As η increases ... the danger of no convergence increases."
	// With an absurd η the trajectory must either blow up (ErrDiverged)
	// or fail to settle; it must NOT converge to the optimum cost that
	// a small η reaches.
	x := twoPath(t, 20, utility.Linear{Slope: 1})

	small := New(x, Config{Eta: 0.1})
	traceS, err := small.Run(6000, nil)
	if err != nil {
		t.Fatal(err)
	}
	goodCost := traceS[len(traceS)-1].Cost

	big := New(x, Config{Eta: 1e4})
	traceB, err := big.Run(6000, nil)
	if err == nil {
		finalCost := traceB[len(traceB)-1].Cost
		if finalCost <= goodCost+0.05 {
			t.Fatalf("eta=1e4 converged to %g (small-eta %g); expected divergence or oscillation", finalCost, goodCost)
		}
	}
}

func TestBlockingAblationSameOptimumOnDAG(t *testing.T) {
	// Member subgraphs are DAGs, so blocking only affects the path, not
	// the fixed point.
	x := twoPath(t, 20, utility.Linear{Slope: 1})
	withB := New(x, Config{Eta: 0.1})
	without := New(x, Config{Eta: 0.1, DisableBlocking: true})
	tb, err := withB.Run(5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := without.Run(5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(tb[len(tb)-1].Utility - tn[len(tn)-1].Utility); diff > 0.02 {
		t.Fatalf("blocking changed the optimum by %g", diff)
	}
}

func TestWarmStartFasterThanCold(t *testing.T) {
	// E7 mechanism: after converging at λ=18, restarting at λ=20 from
	// the converged routing must reach 95% of the new optimum in fewer
	// iterations than a cold start.
	xA := twoPath(t, 18, utility.Linear{Slope: 1})
	warmup := New(xA, Config{Eta: 0.2})
	if _, err := warmup.Run(6000, nil); err != nil {
		t.Fatal(err)
	}

	xB := twoPath(t, 20, utility.Linear{Slope: 1})
	cold := New(xB, Config{Eta: 0.2})
	_, coldHit, err := cold.RunToTarget(18, 0.95, 20000)
	if err != nil {
		t.Fatal(err)
	}

	// Same topology, so routing vectors are index-compatible.
	warm, err := NewFrom(xB, warmup.Routing(), Config{Eta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	_, warmHit, err := warm.RunToTarget(18, 0.95, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if coldHit < 0 || warmHit < 0 {
		t.Fatalf("targets not reached: cold=%d warm=%d", coldHit, warmHit)
	}
	if warmHit >= coldHit {
		t.Fatalf("warm start (%d iters) not faster than cold (%d)", warmHit, coldHit)
	}
}

func TestUtilityApproachesLambdaNeverExceeds(t *testing.T) {
	x := singlePath(t, 1000, 1000, 5)
	e := New(x, Config{Eta: 1})
	trace, err := e.Run(4000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range trace {
		if info.Admitted[0] > 5+1e-9 {
			t.Fatalf("admitted %g exceeds λ = 5", info.Admitted[0])
		}
	}
}

func TestBlockingScaleCorrectness(t *testing.T) {
	// Regression for the shrinkage-aware improper-link test (see
	// tagNode): on this deep instance the verbatim (unscaled)
	// comparison permanently tags the routes commodity S2 needs and the
	// iteration pins at ≈61% of the optimum; the scale-corrected test
	// must reach what the no-blocking ablation reaches.
	p, err := randnet.Generate(randnet.Config{Seed: 2, Nodes: 40, Layers: 9, Commodities: 2})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refopt.Solve(x, refopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withBlocking := New(x, Config{Eta: 0.04})
	noBlocking := New(x, Config{Eta: 0.04, DisableBlocking: true})
	var wb, nb StepInfo
	for i := 0; i < 30000; i++ {
		wb = withBlocking.Step()
		nb = noBlocking.Step()
	}
	if wb.Utility < 0.95*ref.Utility {
		t.Fatalf("blocking run reached %.3f of optimum; spurious-tag trap is back", wb.Utility/ref.Utility)
	}
	if math.Abs(wb.Utility-nb.Utility) > 0.05*(1+nb.Utility) {
		t.Fatalf("blocking (%g) and no-blocking (%g) fixed points diverge", wb.Utility, nb.Utility)
	}
}
