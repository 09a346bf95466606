package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEdge(t *testing.T, g *Graph, from, to NodeID) EdgeID {
	t.Helper()
	e, err := g.AddEdge(from, to)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", from, to, err)
	}
	return e
}

func all(EdgeID) bool { return true }

// indexed indexes the edges of g that keep admits.
func indexed(g *Graph, keep func(EdgeID) bool) *SubDAG {
	var edges []EdgeID
	for e := 0; e < g.NumEdges(); e++ {
		if keep(EdgeID(e)) {
			edges = append(edges, EdgeID(e))
		}
	}
	ix := new(SubDAG)
	ix.Index(g, edges)
	return ix
}

// reach runs SubDAG.Reach from node n over the kept edges and scatters
// the marks to full graph width. n itself always counts, member of the
// index or not.
func reach(g *Graph, keep func(EdgeID) bool, n NodeID, forward bool) []bool {
	ix := indexed(g, keep)
	out := make([]bool, g.NumNodes())
	out[n] = true
	for l, seen := range ix.Reach(nil, ix.LocalNode(n), forward) {
		if seen {
			out[ix.Nodes[l]] = true
		}
	}
	return out
}

// hasPath is the reachability oracle: plain recursion over Graph.Out,
// exponential in general and fine on the small DAGs it is asked about.
func hasPath(g *Graph, from, to NodeID) bool {
	if from == to {
		return true
	}
	for _, e := range g.Out(from) {
		if hasPath(g, g.Edge(e).To, to) {
			return true
		}
	}
	return false
}

// diamond builds 0 -> {1,2} -> 3.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New(4, 4)
	g.AddNodes(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 3)
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New(0, 0)
	for want := 0; want < 5; want++ {
		if got := g.AddNode(); got != NodeID(want) {
			t.Fatalf("AddNode = %d, want %d", got, want)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddNodesReturnsFirstID(t *testing.T) {
	g := New(0, 0)
	g.AddNode()
	first := g.AddNodes(3)
	if first != 1 {
		t.Fatalf("AddNodes first = %d, want 1", first)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
}

func TestAddEdgeRejectsDuplicates(t *testing.T) {
	g := New(2, 1)
	g.AddNodes(2)
	mustEdge(t, g, 0, 1)
	if _, err := g.AddEdge(0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate AddEdge err = %v, want ErrDuplicateEdge", err)
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New(1, 0)
	g.AddNode()
	if _, err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestAddEdgeRejectsUnknownNodes(t *testing.T) {
	g := New(1, 0)
	g.AddNode()
	if _, err := g.AddEdge(0, 7); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
	if _, err := g.AddEdge(-1, 0); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
}

func TestEdgeBetween(t *testing.T) {
	g := diamond(t)
	if e := g.EdgeBetween(0, 1); e == Invalid {
		t.Fatal("EdgeBetween(0,1) = Invalid, want an edge")
	}
	if e := g.EdgeBetween(1, 0); e != Invalid {
		t.Fatalf("EdgeBetween(1,0) = %d, want Invalid", e)
	}
	if e := g.EdgeBetween(0, 3); e != Invalid {
		t.Fatalf("EdgeBetween(0,3) = %d, want Invalid", e)
	}
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := diamond(t)
	if got := g.OutDegree(0); got != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(3); got != 2 {
		t.Fatalf("InDegree(3) = %d, want 2", got)
	}
	if got := g.OutDegree(3); got != 0 {
		t.Fatalf("OutDegree(3) = %d, want 0", got)
	}
	for _, e := range g.Out(0) {
		if g.Edge(e).From != 0 {
			t.Fatalf("edge %d in Out(0) has From=%d", e, g.Edge(e).From)
		}
	}
	for _, e := range g.In(3) {
		if g.Edge(e).To != 3 {
			t.Fatalf("edge %d in In(3) has To=%d", e, g.Edge(e).To)
		}
	}
}

func TestTopoSortDiamond(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoSortFiltered(all)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int, len(order))
	for i, n := range order {
		pos[n] = i
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(EdgeID(e))
		if pos[edge.From] >= pos[edge.To] {
			t.Fatalf("edge (%d,%d) violates topological order %v", edge.From, edge.To, order)
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New(3, 3)
	g.AddNodes(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 0)
	if _, err := g.TopoSortFiltered(all); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestTopoSortFilteredBreaksCycle(t *testing.T) {
	g := New(3, 3)
	g.AddNodes(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	back := mustEdge(t, g, 2, 0)
	order, err := g.TopoSortFiltered(func(e EdgeID) bool { return e != back })
	if err != nil {
		t.Fatalf("filtered sort: %v", err)
	}
	if len(order) != 3 {
		t.Fatalf("order has %d nodes, want 3", len(order))
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	g := diamond(t)
	first, err := g.TopoSortFiltered(all)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := g.TopoSortFiltered(all)
		if err != nil {
			t.Fatal(err)
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d: order %v != %v", i, again, first)
			}
		}
	}
}

func TestReachability(t *testing.T) {
	g := diamond(t)
	extra := g.AddNode() // disconnected node 4
	fromZero := reach(g, all, 0, true)
	for n := NodeID(0); n <= 3; n++ {
		if !fromZero[n] {
			t.Fatalf("node %d not reachable from 0", n)
		}
	}
	if fromZero[extra] {
		t.Fatal("disconnected node reported reachable")
	}
	toSink := reach(g, all, 3, false)
	for n := NodeID(0); n <= 3; n++ {
		if !toSink[n] {
			t.Fatalf("node %d not co-reachable to 3", n)
		}
	}
	if toSink[extra] {
		t.Fatal("disconnected node reported co-reachable")
	}
}

func TestReachabilityRespectsFilter(t *testing.T) {
	g := diamond(t)
	// Drop both edges into node 3.
	keep := func(e EdgeID) bool { return g.Edge(e).To != 3 }
	r := reach(g, keep, 0, true)
	if r[3] {
		t.Fatal("node 3 reachable despite filtered edges")
	}
	if !r[1] || !r[2] {
		t.Fatal("nodes 1,2 should stay reachable")
	}
}

func TestClone(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone must not affect the original.
	c.AddNode()
	mustEdge(t, c, 3, 4)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatal("mutating clone affected original")
	}
	for e := 0; e < g.NumEdges(); e++ {
		if g.Edge(EdgeID(e)) != c.Edge(EdgeID(e)) {
			t.Fatalf("edge %d differs after clone", e)
		}
	}
}

// randomDAG builds a random DAG by only adding forward edges in a
// random permutation, so TopoSort must always succeed on it.
func randomDAG(r *rand.Rand, n int, p float64) *Graph {
	g := New(n, n*n/4)
	g.AddNodes(n)
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				// Ignore error: duplicates cannot occur here.
				_, _ = g.AddEdge(NodeID(perm[i]), NodeID(perm[j]))
			}
		}
	}
	return g
}

func TestQuickTopoSortValidOnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(30), 0.3)
		order, err := g.TopoSortFiltered(all)
		if err != nil {
			return false
		}
		pos := make(map[NodeID]int, len(order))
		for i, n := range order {
			pos[n] = i
		}
		if len(pos) != g.NumNodes() {
			return false
		}
		for e := 0; e < g.NumEdges(); e++ {
			edge := g.Edge(EdgeID(e))
			if pos[edge.From] >= pos[edge.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReachabilityAgreesWithPaths(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(10), 0.35)
		src := NodeID(r.Intn(g.NumNodes()))
		got := reach(g, all, src, true)
		for n := 0; n < g.NumNodes(); n++ {
			if got[n] != hasPath(g, src, NodeID(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoReachableIsReverseReachable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(20), 0.3)
		dst := NodeID(r.Intn(g.NumNodes()))
		co := reach(g, all, dst, false)
		for n := 0; n < g.NumNodes(); n++ {
			fwd := reach(g, all, NodeID(n), true)
			if co[n] != fwd[dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// referenceTopoSort is the O(n²) min-ID-first Kahn's algorithm the
// two-front frontier replaced: pop the smallest zero-indegree ID by
// linear scan. It defines the order contract the fast path must match
// exactly — solver trajectories depend on it bitwise.
func referenceTopoSort(g *Graph, keep func(EdgeID) bool) ([]NodeID, error) {
	n := g.NumNodes()
	indeg := make([]int, n)
	for e := 0; e < g.NumEdges(); e++ {
		if keep(EdgeID(e)) {
			indeg[g.Edge(EdgeID(e)).To]++
		}
	}
	frontier := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for len(frontier) > 0 {
		minAt := 0
		for i, v := range frontier {
			if v < frontier[minAt] {
				minAt = i
			}
		}
		u := frontier[minAt]
		frontier[minAt] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		order = append(order, u)
		for _, e := range g.Out(u) {
			if !keep(e) {
				continue
			}
			v := g.Edge(e).To
			indeg[v]--
			if indeg[v] == 0 {
				frontier = append(frontier, v)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// TestQuickTopoSortMatchesReference pins the heap-frontier sort to the
// naive min-ID-first order on random DAGs, both unfiltered and under a
// random edge filter (the per-commodity subgraph case where most nodes
// start free).
func TestQuickTopoSortMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(40), 0.3)
		kept := make([]bool, g.NumEdges())
		for e := range kept {
			kept[e] = r.Float64() < 0.5
		}
		for _, keep := range []func(EdgeID) bool{
			all,
			func(e EdgeID) bool { return kept[e] },
		} {
			want, err1 := referenceTopoSort(g, keep)
			got, err2 := g.TopoSortFiltered(keep)
			if (err1 == nil) != (err2 == nil) {
				return false
			}
			if err1 != nil {
				continue
			}
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSubDAGMatchesFilteredGraph pins the sparse index to the
// filtered full-graph view it stands in for, on random edge subsets of
// random graphs, cyclic ones included, through one SubDAG reused for
// every case: Topo is the member subsequence of TopoSortFiltered (the
// order solver trajectories depend on bitwise), Out and In are the
// filtered Graph.Out and Graph.In scans, and the local↔global maps
// invert each other.
func TestQuickSubDAGMatchesFilteredGraph(t *testing.T) {
	var ix SubDAG
	var order []int32
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(40), 0.3)
		if r.Intn(4) == 0 {
			// A back edge or two: cycles, unless it duplicates.
			_, _ = g.AddEdge(NodeID(r.Intn(g.NumNodes())), NodeID(r.Intn(g.NumNodes())))
		}
		var edges []EdgeID
		for e := 0; e < g.NumEdges(); e++ {
			if r.Float64() < 0.5 {
				edges = append(edges, EdgeID(e))
			}
		}
		ix.Index(g, edges)
		keep := func(e EdgeID) bool { return ix.LocalEdge(e) >= 0 }

		for l, n := range ix.Nodes {
			if ix.LocalNode(n) != int32(l) {
				return false
			}
			for _, side := range []struct {
				local []int32
				full  []EdgeID
			}{{ix.Out(int32(l)), g.Out(n)}, {ix.In(int32(l)), g.In(n)}} {
				i := 0
				for _, e := range side.full {
					if !keep(e) {
						continue
					}
					if i >= len(side.local) || ix.Edges[side.local[i]] != e {
						return false
					}
					i++
				}
				if i != len(side.local) {
					return false
				}
			}
		}
		for le, e := range edges {
			ed := g.Edge(e)
			if ix.LocalEdge(e) != int32(le) || ix.Nodes[ix.Tail[le]] != ed.From || ix.Nodes[ix.Head[le]] != ed.To {
				return false
			}
		}

		full, errFull := g.TopoSortFiltered(keep)
		var err error
		order, err = ix.Topo(order)
		if errFull != nil || err != nil {
			return errors.Is(errFull, ErrCycle) && errors.Is(err, ErrCycle)
		}
		i := 0
		for _, n := range full {
			if ix.LocalNode(n) < 0 {
				continue
			}
			if i >= len(order) || ix.Nodes[order[i]] != n {
				return false
			}
			i++
		}
		return i == len(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
