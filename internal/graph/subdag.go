package graph

import "slices"

// SubDAG is a sparse local index of an edge subset of a graph — one
// commodity's G_j (§2) — and the two structural questions asked of it:
// a topological order and reachability. Local node and edge indexes are
// assigned in ascending global-ID order, so Nodes and Edges double as
// the sorted local→global maps and a global→local lookup is a binary
// search. Every array is sized by the subset, never by the graph, so
// working on it costs O(k log k) in its own edge count.
//
// Out lists are in ascending global edge-ID order, matching a filtered
// Graph.Out scan, and Topo is the member subsequence of
// TopoSortFiltered's order.
//
// A SubDAG is reusable: Index overwrites the previous subset's arrays
// in place, so a pass over many commodities allocates only while the
// buffers grow to the largest one. Callers that keep a result copy it
// out (transform's builder does, into its slabs).
type SubDAG struct {
	// Nodes maps local node index → node ID, strictly ascending: the
	// endpoints of Edges and nothing else.
	Nodes []NodeID
	// Edges maps local edge index → edge ID, strictly ascending. It is
	// the slice Index was given, not a copy.
	Edges []EdgeID

	// Tail and Head are each local edge's endpoints as local node
	// indexes.
	Tail []int32
	Head []int32

	// CSR adjacency over local indexes: the out-edges of local node l
	// are OutEdges[OutIdx[l]:OutIdx[l+1]] in ascending edge order;
	// likewise InEdges/InIdx. Read them through Out and In.
	OutIdx   []int32
	OutEdges []int32
	InIdx    []int32
	InEdges  []int32

	ends  []NodeID // edge endpoints, sorted to derive Nodes
	count []int32  // CSR cursors, then indegrees
	stack []int32  // DFS stack, then the topo sort's heap frontier
}

// Out returns the local out-edge indexes of local node l in ascending
// global edge-ID order. The slice aliases the CSR arrays; callers must
// not modify it.
func (ix *SubDAG) Out(l int32) []int32 {
	return ix.OutEdges[ix.OutIdx[l]:ix.OutIdx[l+1]]
}

// In returns the local in-edge indexes of local node l in ascending
// global edge-ID order. The slice aliases the CSR arrays; callers must
// not modify it.
func (ix *SubDAG) In(l int32) []int32 {
	return ix.InEdges[ix.InIdx[l]:ix.InIdx[l+1]]
}

// LocalNode returns the local index of node n, or -1 when n is not a
// member node. O(log member nodes).
func (ix *SubDAG) LocalNode(n NodeID) int32 { return Local(ix.Nodes, n) }

// LocalEdge returns the local index of edge e, or -1 when e is not a
// member edge. O(log member edges).
func (ix *SubDAG) LocalEdge(e EdgeID) int32 { return Local(ix.Edges, e) }

// Local returns the position of id in the strictly ascending ids — the
// local index of a global ID under the sorted local→global map every
// sparse view keeps — or -1 when it is not there.
func Local[T NodeID | EdgeID](ids []T, id T) int32 {
	if i, ok := slices.BinarySearch(ids, id); ok {
		return int32(i)
	}
	return -1
}

// resized returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// Endpoints is a graph Index can read edge ends from, stored or computed.
type Endpoints interface{ Edge(EdgeID) Edge }

// Index points the index at the given edges of g, which must be
// strictly ascending: it derives the member node set, the local
// endpoints and both CSR adjacencies. edges is retained as Edges, not
// copied, and may be a prefix of the previous call's (re-indexing after
// the caller dropped some).
func (ix *SubDAG) Index(g Endpoints, edges []EdgeID) {
	ix.Edges = edges
	ix.ends = ix.ends[:0]
	for _, e := range edges {
		ed := g.Edge(e)
		ix.ends = append(ix.ends, ed.From, ed.To)
	}
	slices.Sort(ix.ends)
	ix.Nodes = ix.Nodes[:0]
	for i, n := range ix.ends {
		if i == 0 || n != ix.ends[i-1] {
			ix.Nodes = append(ix.Nodes, n)
		}
	}
	nn, ne := len(ix.Nodes), len(edges)
	ix.Tail, ix.Head = resized(ix.Tail, ne), resized(ix.Head, ne)
	for le, e := range edges {
		ed := g.Edge(e)
		ix.Tail[le] = ix.LocalNode(ed.From)
		ix.Head[le] = ix.LocalNode(ed.To)
	}

	// Edges are placed in ascending local (= global) order, so each
	// per-node list comes out ascending.
	ix.OutIdx, ix.InIdx = resized(ix.OutIdx, nn+1), resized(ix.InIdx, nn+1)
	clear(ix.OutIdx)
	clear(ix.InIdx)
	for le := 0; le < ne; le++ {
		ix.OutIdx[ix.Tail[le]+1]++
		ix.InIdx[ix.Head[le]+1]++
	}
	for l := 0; l < nn; l++ {
		ix.OutIdx[l+1] += ix.OutIdx[l]
		ix.InIdx[l+1] += ix.InIdx[l]
	}
	ix.OutEdges, ix.InEdges = resized(ix.OutEdges, ne), resized(ix.InEdges, ne)
	ix.count = resized(ix.count, 2*nn)
	outNext, inNext := ix.count[:nn], ix.count[nn:]
	copy(outNext, ix.OutIdx)
	copy(inNext, ix.InIdx)
	for le := 0; le < ne; le++ {
		t, h := ix.Tail[le], ix.Head[le]
		ix.OutEdges[outNext[t]] = int32(le)
		outNext[t]++
		ix.InEdges[inNext[h]] = int32(le)
		inNext[h]++
	}
}

// Topo returns the member nodes (local indexes) in topological order,
// written over order's backing array, or ErrCycle. Kahn's algorithm
// with a min-local-index-first frontier. Local index order is node-ID
// order, and in a full-graph TopoSortFiltered over the same edges a
// non-member node has no kept edge — it can neither delay nor advance a
// member's indegree — so this order is exactly the member subsequence
// of that one. Floating-point sweeps over (Topo, Out) are therefore
// bit-identical to sweeps over the filtered full graph.
func (ix *SubDAG) Topo(order []int32) ([]int32, error) {
	nn := len(ix.Nodes)
	indeg := resized(ix.count, nn)
	ix.count = indeg
	clear(indeg)
	for _, h := range ix.Head {
		indeg[h]++
	}
	// An ascending array satisfies the heap property, so the initial
	// frontier needs no sift-up pass.
	frontier := minHeap[int32](ix.stack[:0])
	for l := 0; l < nn; l++ {
		if indeg[l] == 0 {
			frontier = append(frontier, int32(l))
		}
	}
	order = order[:0]
	for len(frontier) > 0 {
		l := frontier.pop()
		order = append(order, l)
		for _, le := range ix.Out(l) {
			h := ix.Head[le]
			indeg[h]--
			if indeg[h] == 0 {
				frontier.push(h)
			}
		}
	}
	ix.stack = frontier
	if len(order) != nn {
		return order, ErrCycle
	}
	return order, nil
}

// Reach marks the member nodes reachable from local node start
// (inclusive) — following edges forward, or backward for the nodes that
// reach start — in seen's backing array, resized to the node count.
// start < 0 (LocalNode's "not a member") marks nothing.
func (ix *SubDAG) Reach(seen []bool, start int32, forward bool) []bool {
	seen = resized(seen, len(ix.Nodes))
	clear(seen)
	if start < 0 {
		return seen
	}
	adj, to := ix.In, ix.Tail
	if forward {
		adj, to = ix.Out, ix.Head
	}
	ix.stack = append(ix.stack[:0], start)
	seen[start] = true
	for len(ix.stack) > 0 {
		l := ix.stack[len(ix.stack)-1]
		ix.stack = ix.stack[:len(ix.stack)-1]
		for _, le := range adj(l) {
			if v := to[le]; !seen[v] {
				seen[v] = true
				ix.stack = append(ix.stack, v)
			}
		}
	}
	return seen
}
