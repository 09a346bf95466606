package transform

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/stream"
)

// storedLayout is the §3 graph built node by node and edge by edge and
// kept, with a name, kind and capacity per node and an original link per
// edge: the reference the computed layout is checked against.
type storedLayout struct {
	g        *graph.Graph
	names    []string
	kinds    []NodeKind
	capacity []float64
	orig     []graph.EdgeID
}

func storeLayout(t *testing.T, p *stream.Problem, incl []int) *storedLayout {
	t.Helper()
	s := &storedLayout{g: graph.New(0, 0)}
	addNode := func(name string, kind NodeKind, capacity float64) graph.NodeID {
		s.names = append(s.names, name)
		s.kinds = append(s.kinds, kind)
		s.capacity = append(s.capacity, capacity)
		return s.g.AddNode()
	}
	addEdge := func(from, to graph.NodeID, orig graph.EdgeID) {
		if _, err := s.g.AddEdge(from, to); err != nil {
			t.Fatal(err)
		}
		s.orig = append(s.orig, orig)
	}
	net := p.Net
	for i, name := range net.Names {
		if net.Kinds[i] == stream.Sink {
			addNode(name, SinkNode, math.Inf(1))
		} else {
			addNode(name, Proc, net.Capacity[i])
		}
	}
	for e := range graph.EdgeID(net.G.NumEdges()) {
		link := net.G.Edge(e)
		bw := addNode(fmt.Sprintf("bw:%s>%s", net.Names[link.From], net.Names[link.To]), Bandwidth, net.Bandwidth[e])
		addEdge(link.From, bw, e)
		addEdge(bw, link.To, e)
	}
	if incl == nil {
		for gi := range p.Commodities {
			incl = append(incl, gi)
		}
	}
	for _, gi := range incl {
		c := p.Commodities[gi]
		d := addNode("dummy:"+c.Name, Dummy, math.Inf(1))
		addEdge(d, c.Source, graph.Invalid)
		addEdge(d, c.SinkID, graph.Invalid)
	}
	return s
}

// check fails t unless x answers every layout question as s does.
func (s *storedLayout) check(t *testing.T, x *Extended) {
	t.Helper()
	if x.NumNodes() != s.g.NumNodes() || x.NumEdges() != s.g.NumEdges() {
		t.Fatalf("%d nodes, %d edges; stored layout has %d, %d", x.NumNodes(), x.NumEdges(), s.g.NumNodes(), s.g.NumEdges())
	}
	for n := range graph.NodeID(s.g.NumNodes()) {
		if got, want := x.Kind(n), s.kinds[n]; got != want {
			t.Fatalf("node %d: kind %v, want %v", n, got, want)
		}
		if got, want := x.Name(n), s.names[n]; got != want {
			t.Fatalf("node %d: name %q, want %q", n, got, want)
		}
		if got, want := x.OutDegree(n), s.g.OutDegree(n); got != want {
			t.Fatalf("node %d (%s): out-degree %d, want %d", n, s.names[n], got, want)
		}
		if got, want := x.Capacity[n], s.capacity[n]; got != want {
			t.Fatalf("node %d (%s): capacity %g, want %g", n, s.names[n], got, want)
		}
		if s.kinds[n] == Bandwidth {
			if got, want := x.Link(n), s.orig[s.g.Out(n)[0]]; got != want {
				t.Fatalf("node %d (%s): link %d, want %d", n, s.names[n], got, want)
			}
		}
	}
	for e := range graph.EdgeID(s.g.NumEdges()) {
		if got, want := x.Edge(e), s.g.Edge(e); got != want {
			t.Fatalf("edge %d: %v, want %v", e, got, want)
		}
		if got, want := x.OrigEdge(e), s.orig[e]; got != want {
			t.Fatalf("edge %d: original link %d, want %d", e, got, want)
		}
	}
	for j := range x.Commodities {
		c := &x.Commodities[j]
		if s.g.Edge(c.InputLink) != (graph.Edge{From: c.Dummy, To: c.Source}) ||
			s.g.Edge(c.DiffLink) != (graph.Edge{From: c.Dummy, To: c.Sink}) {
			t.Fatalf("commodity %d: dummy links %d, %d are not its own", j, c.InputLink, c.DiffLink)
		}
	}
}

// TestExtendedLayout: the layout Extended computes is, node for node and
// edge for edge, the §3 graph built and stored the long way — for a full
// build, a many-commodity build and every shard of a four-way subset
// split — and stays so when the network it was built from grows.
func TestExtendedLayout(t *testing.T) {
	classic, err := randnet.Generate(randnet.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 1000})
	if err != nil {
		t.Fatal(err)
	}
	type build struct {
		p    *stream.Problem
		incl []int
	}
	builds := map[string]build{"classic": {p: classic}, "sparse": {p: sparse}}
	for k := range 4 {
		var incl []int
		for gi := k; gi < len(sparse.Commodities); gi += 4 {
			incl = append(incl, gi)
		}
		builds[fmt.Sprintf("sparse/shard%d", k)] = build{p: sparse, incl: incl}
	}
	for name, b := range builds {
		t.Run(name, func(t *testing.T) {
			want := storeLayout(t, b.p, b.incl)
			want.check(t, mustBuild(t, b.p, Options{Commodities: b.incl}))
		})
	}

	// The problems above own their networks, so these additions land in
	// the very graph and tables the builds read.
	t.Run("grown", func(t *testing.T) {
		p := classic.Clone()
		want := storeLayout(t, p, nil)
		x := mustBuild(t, p, Options{})
		late, err := p.Net.AddServer("late", 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Net.AddLink(0, late, 3); err != nil {
			t.Fatal(err)
		}
		want.check(t, x)
	})
}

// TestBuildAllocatesNothingPerNodeOrLink: at a fixed commodity count and
// footprint, Build makes as many allocations on a network twice the
// size: nothing it allocates is one per node or per link.
func TestBuildAllocatesNothingPerNodeOrLink(t *testing.T) {
	allocs := func(nodes int) float64 {
		p, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: nodes, Layers: 6, Commodities: 200})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Build(p, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(48), allocs(96)
	if small != large {
		t.Fatalf("Build allocates %v times on 48 nodes, %v on 96", small, large)
	}
}
