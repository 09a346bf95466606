package randnet

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

func TestGenerateDefaultIsValid(t *testing.T) {
	p, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// §6 headline shape: 40 processing nodes + 3 sinks, 3 commodities.
	procs, sinks := 0, 0
	for _, k := range p.Net.Kinds {
		switch k {
		case stream.Processing:
			procs++
		case stream.Sink:
			sinks++
		}
	}
	if procs != 40 {
		t.Fatalf("processing nodes = %d, want 40", procs)
	}
	if sinks != 3 || len(p.Commodities) != 3 {
		t.Fatalf("sinks = %d, commodities = %d, want 3,3", sinks, len(p.Commodities))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("same seed produced different instances")
	}
	c, err := Generate(Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	jc, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) == string(jc) {
		t.Fatal("different seeds produced identical instances")
	}
}

func TestGenerateParameterRanges(t *testing.T) {
	p, err := Generate(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for n, kind := range p.Net.Kinds {
		if kind != stream.Processing {
			continue
		}
		if c := p.Net.Capacity[n]; c < 1 || c > 100 {
			t.Fatalf("node %d capacity %g outside U[1,100]", n, c)
		}
	}
	for e := 0; e < p.Net.G.NumEdges(); e++ {
		if b := p.Net.Bandwidth[e]; b < 1 || b > 100 {
			t.Fatalf("edge %d bandwidth %g outside U[1,100]", e, b)
		}
	}
	for _, c := range p.Commodities {
		if c.MaxRate < 50 || c.MaxRate > 100 {
			t.Fatalf("lambda %g outside default U[50,100]", c.MaxRate)
		}
		for e, params := range c.Edges {
			if params.Cost < 1 || params.Cost > 5 {
				t.Fatalf("edge %d cost %g outside U[1,5]", e, params.Cost)
			}
			// β = g_k/g_i with g ∈ [1,10]: ratio within [0.1, 10].
			if params.Beta < 0.1-1e-12 || params.Beta > 10+1e-12 {
				t.Fatalf("edge %d beta %g outside [0.1,10]", e, params.Beta)
			}
		}
	}
}

func TestGenerateSatisfiesProperty1(t *testing.T) {
	// The β of every commodity must come from one set of potentials
	// (Property 1): Validate rebuilds them from β along every member
	// path and rejects any two paths that disagree.
	p, err := Generate(Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// longestPath is the number of edges on the longest path of an acyclic
// graph.
func longestPath(t *testing.T, g *graph.Graph) int {
	t.Helper()
	order, err := g.TopoSortFiltered(func(graph.EdgeID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	depth := make([]int, g.NumNodes())
	best := 0
	for _, u := range order {
		for _, e := range g.Out(u) {
			v := g.Edge(e).To
			depth[v] = max(depth[v], depth[u]+1)
			best = max(best, depth[v])
		}
	}
	return best
}

func TestGenerateDepthTracksLayers(t *testing.T) {
	shallow, err := Generate(Config{Seed: 5, Layers: 3, Nodes: 24})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Generate(Config{Seed: 5, Layers: 12, Nodes: 24, Commodities: 2})
	if err != nil {
		t.Fatal(err)
	}
	ls, ld := longestPath(t, shallow.Net.G), longestPath(t, deep.Net.G)
	if ld <= ls {
		t.Fatalf("deep graph depth %d not greater than shallow %d", ld, ls)
	}
}

func TestGenerateTransformsCleanly(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p, err := Generate(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := transform.Build(p, transform.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestGenerateCustomUtility: every generated commodity values
// throughput, and a caller gives it another utility after generating.
func TestGenerateCustomUtility(t *testing.T) {
	p, err := Generate(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range p.Commodities {
		if c.Utility != (utility.Linear{Slope: 1}) {
			t.Fatalf("commodity %d utility = %#v, want linear slope 1", j, c.Utility)
		}
		if err := p.SetUtility(c.Name, utility.Log{Weight: float64(j + 1), Scale: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for j, c := range p.Commodities {
		lg, ok := c.Utility.(utility.Log)
		if !ok || lg.Weight != float64(j+1) {
			t.Fatalf("commodity %d utility = %#v", j, c.Utility)
		}
	}
}

func TestGenerateRejectsBadConfigs(t *testing.T) {
	if _, err := Generate(Config{Seed: 1, Layers: 1, Nodes: 10}); err == nil {
		t.Fatal("single layer accepted")
	}
	if _, err := Generate(Config{Seed: 1, Nodes: 4, Layers: 8}); err == nil {
		t.Fatal("more layers than nodes accepted")
	}
	if _, err := Generate(Config{Seed: 1, Nodes: 10, Layers: 5, Commodities: 5}); err == nil {
		t.Fatal("too many commodities accepted")
	}
}

func TestGenerateDistinctSources(t *testing.T) {
	p, err := Generate(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[graph.NodeID]bool)
	for _, c := range p.Commodities {
		if seen[c.Source] {
			t.Fatal("two commodities share a source")
		}
		seen[c.Source] = true
	}
}
