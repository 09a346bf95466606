package flow

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

// buildTwoPath returns the extended form of src -> {a,b} -> sink with
// shrinkage consistent with Property 1 (path product 2).
func buildTwoPath(t *testing.T) *transform.Extended {
	t.Helper()
	net := stream.NewNetwork()
	src, _ := net.AddServer("src", 10)
	a, _ := net.AddServer("a", 8)
	b, _ := net.AddServer("b", 6)
	sink, _ := net.AddSink("sink")
	e1, _ := net.AddLink(src, a, 20)
	e2, _ := net.AddLink(src, b, 30)
	e3, _ := net.AddLink(a, sink, 40)
	e4, _ := net.AddLink(b, sink, 50)
	p := stream.NewProblem(net)
	c, err := p.AddCommodity("S", src, sink, 5, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	for e, params := range map[graph.EdgeID]stream.EdgeParams{
		e1: {Beta: 0.5, Cost: 2},
		e2: {Beta: 2, Cost: 3},
		e3: {Beta: 4, Cost: 1},
		e4: {Beta: 1, Cost: 5},
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

func TestNewInitialRoutesEverythingToDiffLink(t *testing.T) {
	x := buildTwoPath(t)
	r := NewInitial(x)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	c := &x.Commodities[0]
	if r.At(0, c.DiffLink) != 1 {
		t.Fatalf("phi(diff) = %g, want 1", r.At(0, c.DiffLink))
	}
	if r.At(0, c.InputLink) != 0 {
		t.Fatalf("phi(input) = %g, want 0", r.At(0, c.InputLink))
	}
	u := Evaluate(r)
	if got := u.AdmittedRate(0); got != 0 {
		t.Fatalf("admitted = %g, want 0", got)
	}
	if got := c.MaxRate - u.AdmittedRate(0); got != 5 {
		t.Fatalf("rejected = %g, want 5", got)
	}
	if got := u.Utility(); got != 0 {
		t.Fatalf("utility = %g, want 0", got)
	}
	// Rejecting all of λ costs the full utility: Y = U(5) = 5.
	if got := u.UtilityLoss(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("loss = %g, want 5", got)
	}
}

func TestInitialInteriorUniform(t *testing.T) {
	x := buildTwoPath(t)
	r := NewInitial(x)
	// src has two member out-edges (toward bw nodes of e1, e2).
	src := x.Commodities[0].Source
	var phis []float64
	for _, e := range extendedGraph(x).Out(src) {
		if graph.Local(x.Sub[0].Edges, e) >= 0 {
			phis = append(phis, r.At(0, e))
		}
	}
	if len(phis) != 2 || phis[0] != 0.5 || phis[1] != 0.5 {
		t.Fatalf("src phis = %v, want [0.5 0.5]", phis)
	}
}

func TestValidateCatchesBadRouting(t *testing.T) {
	x := buildTwoPath(t)

	r := NewInitial(x)
	r.SetAt(0, x.Commodities[0].DiffLink, 0.7) // sums to 0.7 at dummy
	if err := r.Validate(); err == nil {
		t.Fatal("unnormalized phi accepted")
	}

	r = NewInitial(x)
	r.SetAt(0, x.Commodities[0].DiffLink, -0.2)
	if err := r.Validate(); err == nil {
		t.Fatal("negative phi accepted")
	}

	// phi on a non-member edge is unrepresentable in the sparse rows:
	// SetAt must refuse it outright.
	r = NewInitial(x)
	for e := 0; e < x.NumEdges(); e++ {
		if graph.Local(x.Sub[0].Edges, graph.EdgeID(e)) < 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("SetAt on a non-member edge did not panic")
					}
				}()
				r.SetAt(0, graph.EdgeID(e), 0.5)
			}()
			return
		}
	}
	t.Skip("all edges are member edges in this instance")
}

// setSplit routes fraction p of the admitted flow via path a.
func setSplit(x *transform.Extended, r *Routing, admit, viaA float64) {
	c := &x.Commodities[0]
	r.SetAt(0, c.InputLink, admit)
	r.SetAt(0, c.DiffLink, 1-admit)
	src := c.Source
	outs := memberOuts(x, 0, src)
	r.SetAt(0, outs[0], viaA)
	r.SetAt(0, outs[1], 1-viaA)
}

func memberOuts(x *transform.Extended, j int, n graph.NodeID) []graph.EdgeID {
	var outs []graph.EdgeID
	for _, e := range extendedGraph(x).Out(n) {
		if graph.Local(x.Sub[j].Edges, e) >= 0 {
			outs = append(outs, e)
		}
	}
	return outs
}

func TestEvaluateFlowBalanceWithShrinkage(t *testing.T) {
	x := buildTwoPath(t)
	r := NewInitial(x)
	setSplit(x, r, 0.6, 1.0) // admit 3, all via a
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	u := Evaluate(r)

	if got := u.AdmittedRate(0); math.Abs(got-3) > 1e-12 {
		t.Fatalf("admitted = %g, want 3", got)
	}
	// Path src -(β=0.5)-> a -(β=4)-> sink: t(a) = 3·0.5 = 1.5,
	// delivered = 1.5·4 = 6 (sink units).
	aNode, _ := nodeByName(x, "a")
	if got := u.TAt(0, aNode); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("t(a) = %g, want 1.5", got)
	}
	if got := u.DeliveredRate(0); math.Abs(got-6) > 1e-12 {
		t.Fatalf("delivered = %g, want 6 = g_sink·a", got)
	}
	// Utility counts source units.
	if got := u.Utility(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("utility = %g, want 3", got)
	}
}

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

func nodeByName(x *transform.Extended, name string) (graph.NodeID, bool) {
	for n := range graph.NodeID(x.NumNodes()) {
		if x.Name(n) == name {
			return n, true
		}
	}
	return graph.Invalid, false
}

func TestEvaluateResourceUsage(t *testing.T) {
	x := buildTwoPath(t)
	r := NewInitial(x)
	setSplit(x, r, 0.6, 1.0) // admit 3 via a
	u := Evaluate(r)

	// src processes 3 units toward a at cost 2/unit: f(src) = 6.
	src := x.Commodities[0].Source
	if got := u.FNode[src]; math.Abs(got-6) > 1e-12 {
		t.Fatalf("f(src) = %g, want 6", got)
	}
	// Wire src->a carries 3·0.5 = 1.5 units; bandwidth node usage 1.5.
	bw, ok := nodeByName(x, "bw:src>a")
	if !ok {
		t.Fatal("bandwidth node missing")
	}
	if got := u.FNode[bw]; math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("f(bw src>a) = %g, want 1.5", got)
	}
	// a processes t(a)=1.5 units at cost 1: f(a) = 1.5.
	aNode, _ := nodeByName(x, "a")
	if got := u.FNode[aNode]; math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("f(a) = %g, want 1.5", got)
	}
}

func TestFeasible(t *testing.T) {
	x := buildTwoPath(t)
	r := NewInitial(x)
	setSplit(x, r, 0.6, 1.0)
	u := Evaluate(r)
	ok, slack := u.Feasible()
	if !ok {
		t.Fatal("feasible flow reported infeasible")
	}
	// src: f=6 of C=10 -> slack 0.4 is the minimum across nodes here.
	if math.Abs(slack-0.4) > 1e-9 {
		t.Fatalf("slack = %g, want 0.4", slack)
	}

	// Admit everything via a: f(src) = 5·2 = 10 = C -> infeasible edge.
	setSplit(x, r, 1.0, 1.0)
	u = Evaluate(r)
	if _, slack := u.Feasible(); slack > 1e-9 {
		t.Fatalf("slack = %g, want <= 0", slack)
	}
}

func TestTotalCostDecomposition(t *testing.T) {
	x := buildTwoPath(t)
	r := NewInitial(x)
	setSplit(x, r, 0.6, 0.5)
	u := Evaluate(r)
	if got, want := u.TotalCost(), u.UtilityLoss()+u.PenaltyCost(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TotalCost = %g, want Y+εD = %g", got, want)
	}
	// Loss of rejecting 2 of λ=5 under slope-1 linear utility is 2.
	if got := u.UtilityLoss(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Y = %g, want 2", got)
	}
	if u.PenaltyCost() <= 0 {
		t.Fatal("penalty cost should be positive with flow in the network")
	}
}

func TestUtilityLossPlusUtilityIsConstant(t *testing.T) {
	// U(a) + Y(λ−a) = U(λ) for every admitted rate: check across splits.
	x := buildTwoPath(t)
	for _, admit := range []float64{0, 0.25, 0.5, 0.75, 1} {
		r := NewInitial(x)
		setSplit(x, r, admit, 0.5)
		u := Evaluate(r)
		got := u.Utility() + u.UtilityLoss()
		if math.Abs(got-5) > 1e-9 {
			t.Fatalf("admit=%g: U+Y = %g, want U(λ) = 5", admit, got)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := buildTwoPath(t)
	r := NewInitial(x)
	c := r.Clone()
	c.Phi[0][0] = 0.123
	if r.Phi[0][0] == 0.123 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestTwoCommoditySharedNode(t *testing.T) {
	// Two commodities share server "mid"; per-commodity usage adds up.
	net := stream.NewNetwork()
	s1, _ := net.AddServer("s1", 10)
	s2, _ := net.AddServer("s2", 10)
	mid, _ := net.AddServer("mid", 10)
	k1, _ := net.AddSink("k1")
	k2, _ := net.AddSink("k2")
	a1, _ := net.AddLink(s1, mid, 100)
	a2, _ := net.AddLink(s2, mid, 100)
	b1, _ := net.AddLink(mid, k1, 100)
	b2, _ := net.AddLink(mid, k2, 100)
	p := stream.NewProblem(net)
	c1, err := p.AddCommodity("C1", s1, k1, 4, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.AddCommodity("C2", s2, k2, 4, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []graph.EdgeID{a1, b1} {
		if err := p.SetEdge(c1, e, stream.EdgeParams{Beta: 1, Cost: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []graph.EdgeID{a2, b2} {
		if err := p.SetEdge(c2, e, stream.EdgeParams{Beta: 1, Cost: 3}); err != nil {
			t.Fatal(err)
		}
	}
	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewInitial(x)
	for j := range x.Commodities {
		c := &x.Commodities[j]
		r.SetAt(j, c.InputLink, 0.5)
		r.SetAt(j, c.DiffLink, 0.5)
	}
	u := Evaluate(r)
	// Each commodity admits 2; at mid both are processed at their own
	// cost: f(mid) = 2·2 + 2·3 = 10.
	midExt := graph.NodeID(mid)
	if got := u.FNode[midExt]; math.Abs(got-10) > 1e-12 {
		t.Fatalf("f(mid) = %g, want 10", got)
	}
}
