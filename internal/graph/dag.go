package graph

import "errors"

// ErrCycle is returned when a topological order is requested on a graph
// (or subgraph) that contains a directed cycle.
var ErrCycle = errors.New("graph: cycle detected")

// TopoSortFiltered returns a topological order of all nodes considering
// only edges for which keep(e) is true. It returns ErrCycle when the
// kept subgraph is cyclic. Kahn's algorithm; ties broken by node ID so
// the order is deterministic. The frontier is a min-heap on node ID:
// wide graphs (many simultaneous zero-indegree nodes — e.g. thousands
// of commodity sources) keep the whole width in the frontier, so a
// linear-scan pop would make the sort quadratic.
//
// No solver path calls it: the solver walks SubDAG.Topo. It is the
// full-graph reference tests check the sparse order against: graph's
// TestQuickSubDAGMatchesFilteredGraph, transform's
// TestLocalTopoMatchesFilteredSort, flow's dense reference sweep
// (TestSparseEvaluateMatchesDenseReferenceBitwise) and gradient's
// longest-path oracle (TestStatsAccounting).
func (g *Graph) TopoSortFiltered(keep func(EdgeID) bool) ([]NodeID, error) {
	n := g.NumNodes()
	indeg := make([]int, n)
	for e, edge := range g.edges {
		if keep(EdgeID(e)) {
			indeg[edge.To]++
		}
	}
	// Two frontier fronts: the initially-free nodes are generated in
	// ascending ID order and consumed by index, while nodes freed
	// during the sweep go through a min-heap. Popping the smaller head
	// of the two preserves exact min-ID-first order while keeping the
	// (often dominant) initially-free majority at O(1) per node —
	// filtered sorts keep only one commodity's edges, leaving nearly
	// every node free from the start.
	initial := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			initial = append(initial, NodeID(i))
		}
	}
	var freed minHeap[NodeID]
	next := 0
	order := make([]NodeID, 0, n)
	for next < len(initial) || len(freed) > 0 {
		var u NodeID
		if next < len(initial) && (len(freed) == 0 || initial[next] < freed[0]) {
			u = initial[next]
			next++
		} else {
			u = freed.pop()
		}
		order = append(order, u)
		for _, e := range g.out[u] {
			if !keep(e) {
				continue
			}
			v := g.edges[e].To
			indeg[v]--
			if indeg[v] == 0 {
				freed.push(v)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// minHeap is a binary min-heap of node IDs or local node indexes: the
// deterministic min-first frontier of both topological sorts
// (TopoSortFiltered, SubDAG.Topo).
type minHeap[T NodeID | int32] []T

func (h *minHeap[T]) push(v T) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *minHeap[T]) pop() T {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && s[l] < s[min] {
			min = l
		}
		if r < len(s) && s[r] < s[min] {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
