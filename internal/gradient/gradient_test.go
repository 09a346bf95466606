package gradient

import (
	"context"
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

// run steps e up to n times under a fresh divergence detector.
func run(e *Engine, n int) error {
	_, _, err := e.Run(context.Background(), n, 0, new(DivergenceDetector), nil)
	return err
}

// traced is what one step reported, with the admitted rates a_j of
// the routing it started from.
type traced struct {
	StepInfo
	Admitted []float64
}

// traceRun is run keeping what every step reported. A step the
// detector rejects is not in the trace.
func traceRun(e *Engine, n int) ([]traced, error) {
	var trace []traced
	admitted := admittedRates(e.Routing())
	_, _, err := e.Run(context.Background(), n, 0, new(DivergenceDetector), func(info StepInfo) bool {
		trace = append(trace, traced{info, admitted})
		admitted = admittedRates(e.Routing())
		return false
	})
	return trace, err
}

// admittedRates copies out a_j of every commodity of r.
func admittedRates(r *flow.Routing) []float64 {
	a := make([]float64, len(r.Phi))
	for j := range a {
		a[j] = r.AdmittedRate(j)
	}
	return a
}

// sameBits returns -1 when a and b hold the same bits at every index,
// else the first index where they differ. Vectors of different lengths
// fail t before any index is read.
func sameBits(t testing.TB, a, b []float64) int {
	if len(a) != len(b) {
		t.Helper()
		t.Fatalf("comparing %d entries with %d", len(a), len(b))
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// sameForecast fails t, the message led by what, unless got holds the
// forecast want holds, FNode and every T row, bit for bit.
func sameForecast(t testing.TB, what string, got, want *flow.Usage) {
	t.Helper()
	if k := sameBits(t, got.FNode, want.FNode); k >= 0 {
		t.Fatalf("%s: FNode[%d] = %v, fresh forecast %v", what, k, got.FNode[k], want.FNode[k])
	}
	for j := range want.T {
		if k := sameBits(t, got.T[j], want.T[j]); k >= 0 {
			t.Fatalf("%s: T[%d][%d] = %v, fresh forecast %v", what, j, k, got.T[j][k], want.T[j][k])
		}
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// hitTarget is run until a step starts from utility ≥ target; it
// returns that step's iteration, or -1 when the budget runs out first.
func hitTarget(e *Engine, target float64, n int) (int, error) {
	hit := -1
	_, _, err := e.Run(context.Background(), n, 0, new(DivergenceDetector), func(info StepInfo) bool {
		if info.Utility >= target {
			hit = info.Iteration
			return true
		}
		return false
	})
	return hit, err
}

// generate is randnet.Generate(cfg), failing t on an error.
func generate(t testing.TB, cfg randnet.Config) *stream.Problem {
	t.Helper()
	p, err := randnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sparseProblem is the member of the sparse family the serving tests
// share with the given number of commodities: randnet.GenerateSparse on
// 48 nodes in 6 layers, seed 13.
func sparseProblem(t testing.TB, commodities int) *stream.Problem {
	t.Helper()
	p, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: commodities})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// build is transform.Build of p at ε 0.2 over the commodities in
// subset (nil: all of them, as an unnamed subset).
func build(t testing.TB, p *stream.Problem, subset []int) *transform.Extended {
	t.Helper()
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2, Commodities: subset})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// buildInstance generates a randnet problem and its extended form.
func buildInstance(t testing.TB, cfg randnet.Config) *transform.Extended {
	t.Helper()
	return build(t, generate(t, cfg), nil)
}

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
	return build(t, p, nil)
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
	return build(t, p, nil)
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
	trace, err := traceRun(e, 3000)
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
	if err := run(coarse, 3000); err != nil {
		t.Fatal(err)
	}
	fine, err := NewFrom(x, coarse.Routing(), Config{Eta: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := traceRun(fine, 3000)
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
	trace, err := traceRun(e, 2000)
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
	if err := run(e, 8000); err != nil {
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
			x := buildInstance(t, randnet.Config{Seed: seed, Nodes: max(40, 2*layers), Layers: layers, Commodities: 2})
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

// TestRunToTarget: an observer that returns true ends the run right
// after the step it observed, with no check passed and no error, so the
// steps run are that step's iteration + 1 (experiment T3 counts
// iterations to a target this way).
func TestRunToTarget(t *testing.T) {
	x := singlePath(t, 100, 100, 5)
	e := New(x, Config{Eta: 0.5})
	hit := -1
	steps, stationary, err := e.Run(context.Background(), 5000, 0, new(DivergenceDetector), func(info StepInfo) bool {
		if info.Utility >= 0.95*5.0 {
			hit = info.Iteration
			return true
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit < 0 {
		t.Fatal("never reached 95% of optimum")
	}
	if hit > 4000 {
		t.Fatalf("took %d iterations, unexpectedly slow", hit)
	}
	if stationary || steps != hit+1 || e.Stats().Iterations != steps {
		t.Fatalf("Run = (%d steps, stationary %v) with %d engine iterations, want %d steps, not stationary",
			steps, stationary, e.Stats().Iterations, hit+1)
	}
}

// TestRunCheckRule pins when Run checks Theorem 2: once, before the
// first step, even at budget 0, and never again. A start that passes
// runs no step; one that fails runs its whole budget, past the point a
// later check would pass, on the trajectory an unchecked run takes. A
// done ctx stops the run after the check, before a step. The gaps come
// from a reference engine that checks before every step; checking does
// not move the trajectory.
func TestRunCheckRule(t *testing.T) {
	x := twoPath(t, 20, utility.Linear{Slope: 1})
	const n = 400
	ref := New(x, Config{Eta: 0.2})
	gaps := make([]float64, n+1)
	for i := range gaps {
		gaps[i] = ref.Stationarity()
		ref.Step()
	}
	// A tolerance the trajectory reaches halfway.
	tol := gaps[n/2]
	if gaps[0] <= tol {
		t.Fatalf("instance does not fit the test: gap %g at step 0, tolerance %g", gaps[0], tol)
	}
	unchecked := New(x, Config{Eta: 0.2})
	if err := run(unchecked, n); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		budget     int
		tol        float64
		steps      int
		stationary bool
	}{
		{"budget 0 still checks", 0, gaps[0], 0, true},
		{"budget 0 check fails", 0, tol, 0, false},
		{"stops at the first passing check", n, gaps[0], 0, true},
		{"no check after the last step", n / 2, tol, n / 2, false},
		{"a failing start runs its whole budget", n, tol, n, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(x, Config{Eta: 0.2})
			steps, stationary, err := e.Run(context.Background(), tc.budget, tc.tol, new(DivergenceDetector), nil)
			if err != nil || steps != tc.steps || stationary != tc.stationary {
				t.Fatalf("Run = (%d, %v, %v), want (%d, %v, nil)", steps, stationary, err, tc.steps, tc.stationary)
			}
			if steps == n {
				for j := range e.R.Phi {
					if i := sameBits(t, e.R.Phi[j], unchecked.R.Phi[j]); i >= 0 {
						t.Fatalf("commodity %d: φ[%d] = %v after a checked run, %v unchecked", j, i, e.R.Phi[j][i], unchecked.R.Phi[j][i])
					}
				}
			}
		})
	}

	// A done context stops the run before a step, after the check.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(x, Config{Eta: 0.2})
	if steps, stationary, err := e.Run(ctx, n, gaps[0], nil, nil); steps != 0 || !stationary || err != nil {
		t.Fatalf("cancelled, stationary start: Run = (%d, %v, %v), want (0, true, nil)", steps, stationary, err)
	}
	if steps, stationary, err := e.Run(ctx, n, tol, nil, nil); steps != 0 || stationary || err != nil {
		t.Fatalf("cancelled: Run = (%d, %v, %v), want (0, false, nil)", steps, stationary, err)
	}
}

func TestLargeEtaDivergesOrOscillates(t *testing.T) {
	// §5: "As η increases ... the danger of no convergence increases."
	// With an absurd η the trajectory must either blow up (ErrDiverged)
	// or fail to settle; it must NOT converge to the optimum cost that
	// a small η reaches.
	x := twoPath(t, 20, utility.Linear{Slope: 1})

	small := New(x, Config{Eta: 0.1})
	traceS, err := traceRun(small, 6000)
	if err != nil {
		t.Fatal(err)
	}
	goodCost := traceS[len(traceS)-1].Cost

	big := New(x, Config{Eta: 1e4})
	traceB, err := traceRun(big, 6000)
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
	tb, err := traceRun(withB, 5000)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := traceRun(without, 5000)
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
	if err := run(warmup, 6000); err != nil {
		t.Fatal(err)
	}

	xB := twoPath(t, 20, utility.Linear{Slope: 1})
	cold := New(xB, Config{Eta: 0.2})
	coldHit, err := hitTarget(cold, 0.95*18, 20000)
	if err != nil {
		t.Fatal(err)
	}

	// Same topology, so routing vectors are index-compatible.
	warm, err := NewFrom(xB, warmup.Routing(), Config{Eta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	warmHit, err := hitTarget(warm, 0.95*18, 20000)
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
	trace, err := traceRun(e, 4000)
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
	x := buildInstance(t, randnet.Config{Seed: 2, Nodes: 40, Layers: 9, Commodities: 2})
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
