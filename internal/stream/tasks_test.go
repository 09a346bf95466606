package stream

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/utility"
)

func defaultFigure1(t *testing.T) *Problem {
	t.Helper()
	p, err := Figure1(Figure1Config{
		ServerCapacity: 10,
		Bandwidth:      100,
		MaxRate1:       5,
		MaxRate2:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFigure1Validates(t *testing.T) {
	p := defaultFigure1(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Topology(t *testing.T) {
	p := defaultFigure1(t)
	// 8 servers + 2 sinks.
	if got := p.Net.G.NumNodes(); got != 10 {
		t.Fatalf("nodes = %d, want 10", got)
	}
	if len(p.Commodities) != 2 {
		t.Fatalf("commodities = %d, want 2", len(p.Commodities))
	}

	id := func(name string) graph.NodeID {
		n, ok := p.Net.NodeByName(name)
		if !ok {
			t.Fatalf("node %q missing", name)
		}
		return n
	}
	s1 := p.Commodities[0]
	if s1.Name != "S1" || s1.Source != id("server1") {
		t.Fatalf("S1 source = %v, want server1", s1.Source)
	}
	// The solid-link subgraph of Figure 1:
	// 1->2, 1->3, 2->4, 2->5, 3->4, 3->5, 4->6, 5->6, 6->sink1.
	wantS1 := [][2]string{
		{"server1", "server2"}, {"server1", "server3"},
		{"server2", "server4"}, {"server2", "server5"},
		{"server3", "server4"}, {"server3", "server5"},
		{"server4", "server6"}, {"server5", "server6"},
		{"server6", "sink:S1"},
	}
	if len(s1.Edges) != len(wantS1) {
		t.Fatalf("S1 has %d edges, want %d", len(s1.Edges), len(wantS1))
	}
	for _, w := range wantS1 {
		e := p.Net.G.EdgeBetween(id(w[0]), id(w[1]))
		if e == graph.Invalid {
			t.Fatalf("missing link %s->%s", w[0], w[1])
		}
		if _, ok := s1.Edges[e]; !ok {
			t.Fatalf("S1 does not use %s->%s", w[0], w[1])
		}
	}

	// The dashed-link subgraph: 7->3, 3->5, 5->8, 8->sink2.
	s2 := p.Commodities[1]
	if s2.Source != id("server7") {
		t.Fatalf("S2 source = %v, want server7", s2.Source)
	}
	wantS2 := [][2]string{
		{"server7", "server3"}, {"server3", "server5"},
		{"server5", "server8"}, {"server8", "sink:S2"},
	}
	if len(s2.Edges) != len(wantS2) {
		t.Fatalf("S2 has %d edges, want %d", len(s2.Edges), len(wantS2))
	}
	for _, w := range wantS2 {
		e := p.Net.G.EdgeBetween(id(w[0]), id(w[1]))
		if _, ok := s2.Edges[e]; e == graph.Invalid || !ok {
			t.Fatalf("S2 missing %s->%s", w[0], w[1])
		}
	}
}

func TestFigure1SharedLinkDifferentParams(t *testing.T) {
	// Link server3->server5 is used by both streams (task B->C for S1,
	// task E->F for S2); per-commodity parameters must be independent.
	p, err := Figure1(Figure1Config{
		ServerCapacity: 10,
		Bandwidth:      100,
		MaxRate1:       5,
		MaxRate2:       5,
		TaskBeta:       map[string]float64{"B": 0.5, "E": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	n3, _ := p.Net.NodeByName("server3")
	n5, _ := p.Net.NodeByName("server5")
	e := p.Net.G.EdgeBetween(n3, n5)
	if e == graph.Invalid {
		t.Fatal("link server3->server5 missing")
	}
	if got := p.Commodities[0].Edges[e].Beta; got != 0.5 {
		t.Fatalf("S1 beta on shared link = %g, want 0.5", got)
	}
	if got := p.Commodities[1].Edges[e].Beta; got != 2 {
		t.Fatalf("S2 beta on shared link = %g, want 2", got)
	}
}

func TestAssembleRejectsAmbiguousSource(t *testing.T) {
	_, err := Assemble(AssemblySpec{
		Servers: []ServerSpec{
			{Name: "x", Capacity: 1, Tasks: []string{"A"}},
			{Name: "y", Capacity: 1, Tasks: []string{"A"}},
		},
		Streams: []StreamSpec{{
			Name:    "s",
			Tasks:   []Task{{Name: "A", Beta: 1, Cost: 1}},
			MaxRate: 1,
			Utility: utility.Linear{Slope: 1},
		}},
	})
	if err == nil {
		t.Fatal("ambiguous source accepted")
	}
}

func TestAssembleRejectsUnhostedTask(t *testing.T) {
	_, err := Assemble(AssemblySpec{
		Servers: []ServerSpec{{Name: "x", Capacity: 1, Tasks: []string{"A"}}},
		Streams: []StreamSpec{{
			Name: "s",
			Tasks: []Task{
				{Name: "A", Beta: 1, Cost: 1},
				{Name: "B", Beta: 1, Cost: 1},
			},
			MaxRate: 1,
			Utility: utility.Linear{Slope: 1},
		}},
	})
	if err == nil {
		t.Fatal("unhosted task accepted")
	}
}

func TestAssembleRejectsEmptyStream(t *testing.T) {
	_, err := Assemble(AssemblySpec{
		Servers: []ServerSpec{{Name: "x", Capacity: 1}},
		Streams: []StreamSpec{{Name: "s", MaxRate: 1, Utility: utility.Linear{Slope: 1}}},
	})
	if err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestAssembleCustomBandwidth(t *testing.T) {
	p, err := Assemble(AssemblySpec{
		Servers: []ServerSpec{
			{Name: "x", Capacity: 1, Tasks: []string{"A"}},
			{Name: "y", Capacity: 1, Tasks: []string{"B"}},
		},
		Streams: []StreamSpec{{
			Name: "s",
			Tasks: []Task{
				{Name: "A", Beta: 1, Cost: 1},
				{Name: "B", Beta: 1, Cost: 1},
			},
			MaxRate: 1,
			Utility: utility.Linear{Slope: 1},
		}},
		DefaultBandwidth: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := p.Net.NodeByName("x")
	y, _ := p.Net.NodeByName("y")
	e := p.Net.G.EdgeBetween(x, y)
	if p.Net.Bandwidth[e] != 42 {
		t.Fatalf("bandwidth(x,y) = %g, want 42", p.Net.Bandwidth[e])
	}
}

func TestFigure1Property1WithShrinkage(t *testing.T) {
	// Per-task β guarantees Property 1 by construction even with
	// nontrivial shrinkage.
	p, err := Figure1(Figure1Config{
		ServerCapacity: 10,
		Bandwidth:      100,
		MaxRate1:       5,
		MaxRate2:       5,
		TaskBeta:       map[string]float64{"A": 0.5, "B": 2, "C": 0.25, "D": 3},
		TaskCost:       map[string]float64{"A": 2, "B": 1, "C": 4, "D": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	pot, err := p.Potentials(p.Commodities[0])
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := p.Net.NodeByName("sink:S1")
	want := 0.5 * 2 * 0.25 * 3
	if diff := pot[sink] - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("g(sink) = %g, want %g", pot[sink], want)
	}
}

func TestProblemJSONRoundTrip(t *testing.T) {
	p, err := Figure1(Figure1Config{
		ServerCapacity: 10,
		Bandwidth:      100,
		MaxRate1:       5,
		MaxRate2:       7,
		TaskBeta:       map[string]float64{"B": 0.5, "E": 2},
		TaskCost:       map[string]float64{"A": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseProblem(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Net.G.NumNodes() != p.Net.G.NumNodes() || q.Net.G.NumEdges() != p.Net.G.NumEdges() {
		t.Fatal("round trip changed topology size")
	}
	if len(q.Commodities) != len(p.Commodities) {
		t.Fatal("round trip changed commodity count")
	}
	for i, c := range p.Commodities {
		qc := q.Commodities[i]
		if qc.Name != c.Name || qc.MaxRate != c.MaxRate {
			t.Fatalf("commodity %d metadata changed", i)
		}
		if len(qc.Edges) != len(c.Edges) {
			t.Fatalf("commodity %d edge count changed", i)
		}
		for e, params := range c.Edges {
			// Edge IDs are assigned in file order, which MarshalJSON
			// writes in ID order, so IDs are stable across round trips.
			if qc.Edges[e] != params {
				t.Fatalf("commodity %d edge %d params changed: %+v vs %+v", i, e, qc.Edges[e], params)
			}
		}
	}
	data2, err := q.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("JSON not stable across round trips")
	}
}

func TestParseProblemRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":     "{",
		"bad kind":     `{"nodes":[{"name":"a","kind":"quantum"}]}`,
		"unknown node": `{"nodes":[{"name":"a","kind":"processing","capacity":1}],"links":[{"from":"a","to":"zz","bandwidth":1}]}`,
		"bad utility": `{"nodes":[{"name":"a","kind":"processing","capacity":1},{"name":"s","kind":"sink"}],
			"links":[{"from":"a","to":"s","bandwidth":1}],
			"commodities":[{"name":"c","source":"a","sink":"s","maxRate":1,"utility":{"type":"nope"},"edges":[]}]}`,
		"missing link": `{"nodes":[{"name":"a","kind":"processing","capacity":1},{"name":"b","kind":"processing","capacity":1},{"name":"s","kind":"sink"}],
			"links":[{"from":"a","to":"s","bandwidth":1}],
			"commodities":[{"name":"c","source":"a","sink":"s","maxRate":1,"utility":{"type":"linear","slope":1},
				"edges":[{"from":"a","to":"b","beta":1,"cost":1}]}]}`,
	}
	for name, data := range cases {
		if _, err := ParseProblem([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
