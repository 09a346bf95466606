package transform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/utility"
)

// twoPathProblem builds src -> {a, b} -> sink with distinct parameters.
func twoPathProblem(t *testing.T) *stream.Problem {
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
	// Property 1: 0.5*4 == 2*1.
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
	return p
}

// extendedGraph lays x's §3 graph out as a graph.Graph, edge IDs kept,
// for tests that walk its adjacency.
func extendedGraph(x *Extended) *graph.Graph {
	g := graph.New(x.NumNodes(), x.NumEdges())
	g.AddNodes(x.NumNodes())
	for e := range graph.EdgeID(x.NumEdges()) {
		if _, err := g.AddEdge(x.Edge(e).From, x.Edge(e).To); err != nil {
			panic(err)
		}
	}
	return g
}

func mustBuild(t *testing.T, p *stream.Problem, opts Options) *Extended {
	t.Helper()
	x, err := Build(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestBuildSizesMatchPaperFormula(t *testing.T) {
	// §3: N nodes, M edges, J commodities -> N+M+J nodes, 2M+2J edges.
	p := twoPathProblem(t)
	n, m, j := p.Net.G.NumNodes(), p.Net.G.NumEdges(), len(p.Commodities)
	x := mustBuild(t, p, Options{})
	if got, want := x.NumNodes(), n+m+j; got != want {
		t.Fatalf("extended nodes = %d, want N+M+J = %d", got, want)
	}
	if got, want := x.NumEdges(), 2*m+2*j; got != want {
		t.Fatalf("extended edges = %d, want 2M+2J = %d", got, want)
	}
}

func TestBuildPreservesOriginalNodeIDs(t *testing.T) {
	p := twoPathProblem(t)
	x := mustBuild(t, p, Options{})
	for i := 0; i < p.Net.G.NumNodes(); i++ {
		if x.Name(graph.NodeID(i)) != p.Net.Names[i] {
			t.Fatalf("node %d renamed %q -> %q", i, p.Net.Names[i], x.Name(graph.NodeID(i)))
		}
	}
}

func TestBandwidthNodes(t *testing.T) {
	p := twoPathProblem(t)
	x := mustBuild(t, p, Options{})
	og := p.Net.G
	g := extendedGraph(x)
	count := 0
	for n := 0; n < x.NumNodes(); n++ {
		node := graph.NodeID(n)
		if x.Kind(node) != Bandwidth {
			continue
		}
		count++
		// Exactly one in and one out edge, same original edge.
		if g.InDegree(node) != 1 || g.OutDegree(node) != 1 {
			t.Fatalf("bandwidth node %q degree in=%d out=%d", x.Name(node), g.InDegree(node), g.OutDegree(node))
		}
		in, out := g.In(node)[0], g.Out(node)[0]
		if x.OrigEdge(in) != x.OrigEdge(out) {
			t.Fatalf("bandwidth node %q spans different original edges", x.Name(node))
		}
		// Capacity equals the original bandwidth.
		orig := x.OrigEdge(in)
		if x.Capacity[n] != p.Net.Bandwidth[orig] {
			t.Fatalf("bandwidth node %q capacity %g, want %g", x.Name(node), x.Capacity[n], p.Net.Bandwidth[orig])
		}
		// The wire half transfers one-for-one: β = c = 1.
		sg := &x.Sub[0]
		if le := graph.Local(sg.Edges, out); sg.Beta[le] != 1 || sg.Cost[le] != 1 {
			t.Fatalf("wire half beta=%g cost=%g, want 1,1", sg.Beta[le], sg.Cost[le])
		}
		// The processing half inherits the original parameters.
		edge := og.Edge(orig)
		want := p.Commodities[0].Edges[orig]
		if le := graph.Local(sg.Edges, in); sg.Beta[le] != want.Beta || sg.Cost[le] != want.Cost {
			t.Fatalf("proc half (%d,%d) beta=%g cost=%g, want %+v", edge.From, edge.To, sg.Beta[le], sg.Cost[le], want)
		}
	}
	if count != og.NumEdges() {
		t.Fatalf("bandwidth nodes = %d, want %d", count, og.NumEdges())
	}
}

func TestDummyNodes(t *testing.T) {
	p := twoPathProblem(t)
	x := mustBuild(t, p, Options{})
	for j := range x.Commodities {
		c := &x.Commodities[j]
		if x.Kind(c.Dummy) != Dummy {
			t.Fatalf("dummy node kind = %v", x.Kind(c.Dummy))
		}
		if !math.IsInf(x.Capacity[c.Dummy], 1) {
			t.Fatalf("dummy capacity = %g, want +Inf", x.Capacity[c.Dummy])
		}
		if x.Edge(c.InputLink).From != c.Dummy || x.Edge(c.InputLink).To != c.Source {
			t.Fatal("input link endpoints wrong")
		}
		if x.Edge(c.DiffLink).From != c.Dummy || x.Edge(c.DiffLink).To != c.Sink {
			t.Fatal("difference link endpoints wrong")
		}
		// Both dummy links carry flow one-for-one.
		for _, e := range []graph.EdgeID{c.InputLink, c.DiffLink} {
			if le := graph.Local(x.Sub[j].Edges, e); x.Sub[j].Beta[le] != 1 || x.Sub[j].Cost[le] != 1 {
				t.Fatalf("dummy link beta=%g cost=%g, want 1,1", x.Sub[j].Beta[le], x.Sub[j].Cost[le])
			}
		}
	}
}

func TestPenaltyZeroOnUncapacitatedNodes(t *testing.T) {
	p := twoPathProblem(t)
	x := mustBuild(t, p, Options{Epsilon: 0.2})
	d := x.Commodities[0].Dummy
	if x.PenaltyValue(d, 1e12) != 0 || x.PenaltyDeriv(d, 1e12) != 0 {
		t.Fatal("dummy node has nonzero penalty")
	}
	sink := x.Commodities[0].Sink
	if x.PenaltyValue(sink, 1e12) != 0 {
		t.Fatal("sink has nonzero penalty")
	}
}

func TestPenaltyScaledByEpsilon(t *testing.T) {
	p := twoPathProblem(t)
	x := mustBuild(t, p, Options{Epsilon: 0.5})
	src, _ := p.Net.NodeByName("src")
	want := 0.5 * (utility.Reciprocal{}).Value(5, 10)
	if got := x.PenaltyValue(src, 5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PenaltyValue = %g, want %g", got, want)
	}
	wantD := 0.5 * (utility.Reciprocal{}).Deriv(5, 10)
	if got := x.PenaltyDeriv(src, 5); math.Abs(got-wantD) > 1e-12 {
		t.Fatalf("PenaltyDeriv = %g, want %g", got, wantD)
	}
}

func TestDefaultOptions(t *testing.T) {
	p := twoPathProblem(t)
	x := mustBuild(t, p, Options{})
	if x.Epsilon != 0.2 {
		t.Fatalf("default epsilon = %g, want 0.2 (§6)", x.Epsilon)
	}
}

func TestLossOnDiffLinkOnly(t *testing.T) {
	p := twoPathProblem(t)
	x := mustBuild(t, p, Options{})
	c := &x.Commodities[0]
	// Linear utility, slope 1: Y(x) = x, Y'(x) = 1.
	if got := x.LossValue(0, c.DiffLink, 2); math.Abs(got-2) > 1e-12 {
		t.Fatalf("LossValue(diff, 2) = %g, want 2", got)
	}
	if got := c.Loss.Deriv(2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Loss.Deriv(2) = %g, want 1", got)
	}
	if x.LossValue(0, c.InputLink, 2) != 0 {
		t.Fatal("loss nonzero on input link")
	}
}

func TestMemberSubgraphsAreDAGs(t *testing.T) {
	p := twoPathProblem(t)
	x := mustBuild(t, p, Options{})
	g := extendedGraph(x)
	for j := range x.Commodities {
		if _, err := g.TopoSortFiltered(func(e graph.EdgeID) bool { return graph.Local(x.Sub[j].Edges, e) >= 0 }); err != nil {
			t.Fatalf("commodity %d member subgraph: %v", j, err)
		}
		if len(x.Sub[j].Topo) != x.Sub[j].NumNodes() {
			t.Fatalf("commodity %d topo order incomplete", j)
		}
	}
}

func TestTrimDropsDeadEnds(t *testing.T) {
	// src -> a -> sink plus a dead-end src -> b (b has no member path
	// to the sink): the b edge must be trimmed out.
	net := stream.NewNetwork()
	src, _ := net.AddServer("src", 10)
	a, _ := net.AddServer("a", 10)
	b, _ := net.AddServer("b", 10)
	sink, _ := net.AddSink("sink")
	e1, _ := net.AddLink(src, a, 10)
	e2, _ := net.AddLink(a, sink, 10)
	e3, _ := net.AddLink(src, b, 10)
	p := stream.NewProblem(net)
	c, err := p.AddCommodity("S", src, sink, 1, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []graph.EdgeID{e1, e2, e3} {
		if err := p.SetEdge(c, e, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	x := mustBuild(t, p, Options{})
	// Find the proc half of the dead-end edge: src -> bw:src>b.
	deadEnds := 0
	for e := 0; e < x.NumEdges(); e++ {
		if x.OrigEdge(graph.EdgeID(e)) == e3 && graph.Local(x.Sub[0].Edges, graph.EdgeID(e)) >= 0 {
			deadEnds++
		}
	}
	if deadEnds != 0 {
		t.Fatalf("dead-end edge still member (%d halves)", deadEnds)
	}
	_ = b
}

func TestBuildRejectsInvalidProblem(t *testing.T) {
	p := stream.NewProblem(stream.NewNetwork())
	if _, err := Build(p, Options{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestNodeKindString(t *testing.T) {
	for kind, want := range map[NodeKind]string{
		Proc: "proc", Bandwidth: "bandwidth", Dummy: "dummy", SinkNode: "sink",
	} {
		if kind.String() != want {
			t.Fatalf("%v.String() = %q, want %q", int(kind), kind.String(), want)
		}
	}
	if got := NodeKind(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestSubgraphAdjacencyMatchesFilteredScan(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 7, Nodes: 20, Commodities: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := mustBuild(t, p, Options{})
	g := extendedGraph(x)
	for j := range x.Commodities {
		sg := &x.Sub[j]
		for n := 0; n < x.NumNodes(); n++ {
			node := graph.NodeID(n)
			var wantOut, wantIn []graph.EdgeID
			for _, e := range g.Out(node) {
				if graph.Local(x.Sub[j].Edges, e) >= 0 {
					wantOut = append(wantOut, e)
				}
			}
			for _, e := range g.In(node) {
				if graph.Local(x.Sub[j].Edges, e) >= 0 {
					wantIn = append(wantIn, e)
				}
			}
			ln := graph.Local(sg.Nodes, node)
			var gotOut, gotIn []graph.EdgeID
			if ln >= 0 {
				for _, le := range sg.Out(ln) {
					gotOut = append(gotOut, sg.Edges[le])
				}
				for _, le := range sg.In(ln) {
					gotIn = append(gotIn, sg.Edges[le])
				}
			} else if len(wantOut) > 0 || len(wantIn) > 0 {
				t.Fatalf("commodity %d node %d: not a member node but has member edges", j, n)
			}
			if !equalEdges(gotOut, wantOut) {
				t.Fatalf("commodity %d node %d: local out = %v, filtered scan = %v", j, n, gotOut, wantOut)
			}
			if !equalEdges(gotIn, wantIn) {
				t.Fatalf("commodity %d node %d: local in = %v, filtered scan = %v", j, n, gotIn, wantIn)
			}
		}
	}
}

// TestLocalGlobalRoundTrip checks the local↔global index maps are exact
// inverses: graph.Local(Edges, Edges[le]) == le and
// graph.Local(Nodes, Nodes[ln]) == ln for every member element, and -1 for every non-member element.
func TestLocalGlobalRoundTrip(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 11, Nodes: 24, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := mustBuild(t, p, Options{})
	for j := range x.Commodities {
		sg := &x.Sub[j]
		for le, e := range sg.Edges {
			if got := graph.Local(sg.Edges, e); got != int32(le) {
				t.Fatalf("commodity %d: Local(Edges, Edges[%d]=%d) = %d", j, le, e, got)
			}
		}
		for ln, n := range sg.Nodes {
			if got := graph.Local(sg.Nodes, n); got != int32(ln) {
				t.Fatalf("commodity %d: Local(Nodes, Nodes[%d]=%d) = %d", j, ln, n, got)
			}
		}
		for e := 0; e < x.NumEdges(); e++ {
			le := graph.Local(sg.Edges, graph.EdgeID(e))
			if le >= 0 && sg.Edges[le] != graph.EdgeID(e) {
				t.Fatalf("commodity %d edge %d: round trip gives %d", j, e, sg.Edges[le])
			}
		}
	}
}

// TestLocalTopoMatchesFilteredSort verifies the ordering contract the
// bitwise-identity argument rests on: the member-node subsequence of
// the full-graph min-ID-first filtered topo sort, restricted to nodes
// that actually appear in the subgraph, equals the local topo order
// mapped back to global IDs.
func TestLocalTopoMatchesFilteredSort(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 3, Nodes: 18, Commodities: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := mustBuild(t, p, Options{})
	g := extendedGraph(x)
	for j := range x.Commodities {
		sg := &x.Sub[j]
		full, err := g.TopoSortFiltered(func(e graph.EdgeID) bool { return graph.Local(x.Sub[j].Edges, e) >= 0 })
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.NodeID
		for _, n := range full {
			if graph.Local(sg.Nodes, n) >= 0 {
				want = append(want, n)
			}
		}
		if len(want) != len(sg.Topo) {
			t.Fatalf("commodity %d: filtered sort has %d member nodes, local topo %d", j, len(want), len(sg.Topo))
		}
		for i, ln := range sg.Topo {
			if sg.Nodes[ln] != want[i] {
				t.Fatalf("commodity %d: local topo[%d] = node %d, filtered sort = %d",
					j, i, sg.Nodes[ln], want[i])
			}
		}
	}
}

func TestRevTopoIsReversedTopo(t *testing.T) {
	p := twoPathProblem(t)
	x := mustBuild(t, p, Options{})
	for j := range x.Commodities {
		sg := &x.Sub[j]
		topo, rev := sg.Topo, sg.RevTopo()
		if len(rev) != len(topo) {
			t.Fatalf("commodity %d: RevTopo has %d nodes, Topo has %d", j, len(rev), len(topo))
		}
		for i, n := range topo {
			if rev[len(rev)-1-i] != n {
				t.Fatalf("commodity %d: RevTopo[%d] = %d, want Topo[%d] = %d",
					j, len(rev)-1-i, rev[len(rev)-1-i], i, n)
			}
		}
	}
}

func equalEdges(a, b []graph.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBranchAndDepthConstants checks the two topology constants Build
// precomputes for the solver against their definitions: Branch is the
// Topo subsequence of nodes with two or more member out-edges, Depth
// the longest member path in edges.
func TestBranchAndDepthConstants(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 3, Nodes: 18, Commodities: 3})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Extended{mustBuild(t, p, Options{}), mustBuild(t, sparse, Options{}), mustBuild(t, twoPathProblem(t), Options{})} {
		for j := range x.Sub {
			sg := &x.Sub[j]
			var want []int32
			longest := make([]int, sg.NumNodes())
			depth := 0
			for _, l := range sg.Topo {
				if len(sg.Out(l)) >= 2 {
					want = append(want, l)
				}
				for _, le := range sg.Out(l) {
					if h := sg.Head[le]; longest[l]+1 > longest[h] {
						longest[h] = longest[l] + 1
						depth = max(depth, longest[h])
					}
				}
			}
			got := sg.Branch()
			if len(got) != len(want) {
				t.Fatalf("commodity %d: branch list %v, want %v", j, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("commodity %d: branch list %v, want %v", j, got, want)
				}
			}
			if sg.Depth() != depth {
				t.Fatalf("commodity %d: Depth() = %d, longest path has %d edges", j, sg.Depth(), depth)
			}
			if len(sg.Out(sg.Dummy)) != 2 || len(sg.Out(sg.Sink)) != 0 {
				t.Fatalf("commodity %d: dummy has %d out-edges, sink %d", j, len(sg.Out(sg.Dummy)), len(sg.Out(sg.Sink)))
			}
		}
	}
}

// TestSubgraphSlabsAreClipped: the per-commodity arrays share slabs, so
// every one of them must be clipped to its own length — an append
// through one may not run into its neighbour.
func TestSubgraphSlabsAreClipped(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 3, Nodes: 18, Commodities: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := mustBuild(t, p, Options{})
	for j := range x.Sub {
		sg := &x.Sub[j]
		for name, spare := range map[string]int{
			"Nodes": cap(sg.Nodes) - len(sg.Nodes), "Edges": cap(sg.Edges) - len(sg.Edges),
			"Beta": cap(sg.Beta) - len(sg.Beta), "Cost": cap(sg.Cost) - len(sg.Cost),
			"Tail": cap(sg.Tail) - len(sg.Tail), "Head": cap(sg.Head) - len(sg.Head),
			"Topo": cap(sg.Topo) - len(sg.Topo), "RevTopo": cap(sg.RevTopo()) - len(sg.RevTopo()),
			"Branch":   cap(sg.Branch()) - len(sg.Branch()),
			"outEdges": cap(sg.outEdges) - len(sg.outEdges), "inEdges": cap(sg.inEdges) - len(sg.inEdges),
			"outIdx": cap(sg.outIdx) - len(sg.outIdx), "inIdx": cap(sg.inIdx) - len(sg.inIdx),
		} {
			if spare != 0 {
				t.Fatalf("commodity %d: %s has %d spare capacity into the shared slab", j, name, spare)
			}
		}
	}
}
