package transform

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/stream"
)

// Subgraph is one commodity's member subgraph in compact local indexing:
// every array is sized by the commodity's member node/edge counts
// (typically O(path length)), never by the full extended graph. Local
// node and edge indexes are assigned in ascending global-ID order, so
// Nodes and Edges double as the sorted local→global maps and global→
// local lookups are binary searches. All hot solver loops (flow
// forecast, marginal/tag/update waves, back-pressure, the queueing
// simulator, the LP reference) iterate these local arrays; the dense
// per-commodity tables the package used to carry (Member/Beta/Cost rows
// over every extended edge) no longer exist.
//
// Determinism contract: Topo orders the member nodes exactly as the
// member subsequence of a full-graph graph.TopoSortFiltered restricted
// to this commodity's edges. Both are Kahn's algorithm with a
// min-node-ID-first frontier, and a non-member node has no kept edges —
// it can never delay or advance a member node's indegree — so the
// min-global-ID-first local sort visits member nodes in the same
// relative order the filtered full-graph sort does. Out lists are in
// ascending global edge-ID order, matching a filtered G.Out scan.
// Floating-point accumulation over (Topo, Out) is therefore
// bit-identical to the dense-table scan it replaced.
//
// Storage: the slices below are carved from a few flat slabs Build
// allocates per Extended (see builder), one contiguous block per
// commodity, so a sweep over commodities streams through memory
// instead of chasing a dozen small allocations each.
type Subgraph struct {
	// Nodes maps local node index → extended-graph node ID, strictly
	// ascending. Only nodes incident to a surviving member edge appear.
	Nodes []graph.NodeID
	// Edges maps local edge index → extended-graph edge ID, strictly
	// ascending. Only edges on some dummy→sink path survive (the trim
	// the dense representation used to apply in place).
	Edges []graph.EdgeID

	// Beta and Cost are the per-edge parameters, indexed by local edge.
	Beta []float64
	Cost []float64

	// Tail and Head are each local edge's endpoints as local node
	// indexes.
	Tail []int32
	Head []int32

	// Topo is the member-DAG topological order over local node indexes
	// (see the determinism contract above). revTopo caches its reverse
	// for the upstream marginal wave. branch is the Topo subsequence of
	// nodes with two or more member out-edges: the only nodes where the
	// routing update Γ has a choice to make.
	Topo    []int32
	revTopo []int32
	branch  []int32

	// CSR adjacency over local indexes: the out-edges of local node l
	// are outEdges[outIdx[l]:outIdx[l+1]], ascending (global) edge
	// order; likewise inEdges/inIdx.
	outIdx   []int32
	outEdges []int32
	inIdx    []int32
	inEdges  []int32

	// Local node indexes of the commodity's distinguished nodes.
	Dummy  int32
	Source int32
	Sink   int32
	// Local edge indexes of the dummy input and difference links.
	InputLink int32
	DiffLink  int32
	// depth is the longest member path in edges (see Depth).
	depth int32
}

// NumNodes reports the member node count.
func (s *Subgraph) NumNodes() int { return len(s.Nodes) }

// NumEdges reports the member edge count.
func (s *Subgraph) NumEdges() int { return len(s.Edges) }

// Out returns the local out-edge indexes of local node l in ascending
// global edge-ID order. The slice aliases the CSR arrays; callers must
// not modify it.
func (s *Subgraph) Out(l int32) []int32 {
	return s.outEdges[s.outIdx[l]:s.outIdx[l+1]]
}

// In returns the local in-edge indexes of local node l in ascending
// global edge-ID order. The slice aliases the CSR arrays; callers must
// not modify it.
func (s *Subgraph) In(l int32) []int32 {
	return s.inEdges[s.inIdx[l]:s.inIdx[l+1]]
}

// RevTopo returns the cached reverse of Topo, the processing order of
// the upstream marginal-cost wave. Callers must not modify it.
func (s *Subgraph) RevTopo() []int32 { return s.revTopo }

// Branch returns, in Topo order, the local nodes with two or more
// member out-edges. At every other node the routing fraction is pinned
// (one out-edge carries everything, the sink none), so the update Γ
// visits only these. Callers must not modify the slice.
func (s *Subgraph) Branch() []int32 { return s.branch }

// LocalNode returns the local index of extended node n, or -1 when n is
// not a member node. O(log member nodes).
func (s *Subgraph) LocalNode(n graph.NodeID) int32 {
	i := sort.Search(len(s.Nodes), func(i int) bool { return s.Nodes[i] >= n })
	if i < len(s.Nodes) && s.Nodes[i] == n {
		return int32(i)
	}
	return -1
}

// LocalEdge returns the local index of extended edge e, or -1 when e is
// not a member edge. O(log member edges).
func (s *Subgraph) LocalEdge(e graph.EdgeID) int32 {
	i := sort.Search(len(s.Edges), func(i int) bool { return s.Edges[i] >= e })
	if i < len(s.Edges) && s.Edges[i] == e {
		return int32(i)
	}
	return -1
}

// Depth returns the number of edges on the longest member path — the L
// in the paper's O(L) message-round analysis. A topology constant,
// computed once by Build.
func (s *Subgraph) Depth() int { return int(s.depth) }

// Bytes reports the heap footprint of this subgraph's arrays — the
// per-commodity build memory the streamopt_build_bytes gauge surfaces.
func (s *Subgraph) Bytes() int64 {
	const (
		idSize  = 8 // graph.NodeID / graph.EdgeID are int
		f64Size = 8
		i32Size = 4
	)
	n := int64(len(s.Nodes))*idSize + int64(len(s.Edges))*idSize
	n += int64(len(s.Beta)+len(s.Cost)) * f64Size
	n += int64(len(s.Tail)+len(s.Head)+len(s.Topo)+len(s.revTopo)+len(s.branch)) * i32Size
	n += int64(len(s.outIdx)+len(s.outEdges)+len(s.inIdx)+len(s.inEdges)) * i32Size
	return n
}

// builder assembles every Subgraph of one Build. Each commodity is
// worked out in scratch buffers reused from one commodity to the next
// (the member arrays of s plus the sort, mark and counter buffers),
// then appended in its final compact form to four staging slabs; carve
// hands the finished slabs out as the Subgraph slices. A Build thus
// makes a handful of large allocations instead of a dozen small ones
// per commodity, and each commodity's arrays end up contiguous.
type builder struct {
	g *graph.Graph

	s     Subgraph       // the commodity under construction
	phys  []graph.EdgeID // its physical edges, sorted
	ends  []graph.NodeID // edge endpoints, sorted to derive Nodes
	mark  []bool         // reach | coreach marks of the trim
	stack []int32        // DFS stack, then the topo sort's heap frontier
	count []int32        // CSR cursors, then indegrees, then path depths

	// Staged results: per commodity one block in each slab, in the
	// order commit appends and carve takes them, sized by dims.
	i32   []int32
	f64   []float64
	nodes []graph.NodeID
	edges []graph.EdgeID
	dims  []subgraphDims
}

type subgraphDims struct{ nodes, edges, branch int }

// newBuilder sizes the staging slabs for the listed commodities. The
// edge-indexed estimate (two extended edges per physical edge plus the
// two dummy links) is exact unless the trim drops something; nodes are
// bounded through nn ≤ ne+1, which holds for any subgraph whose every
// node lies on a dummy→sink path.
func newBuilder(g *graph.Graph, cs []*stream.Commodity, order []int) *builder {
	ne := 0
	for _, gi := range order {
		ne += 2*len(cs[gi].Edges) + 2
	}
	nn := ne + len(order)
	return &builder{
		g:     g,
		i32:   make([]int32, 0, 5*nn+4*ne),
		f64:   make([]float64, 0, 2*ne),
		nodes: make([]graph.NodeID, 0, nn),
		edges: make([]graph.EdgeID, 0, ne),
		dims:  make([]subgraphDims, 0, len(order)),
	}
}

// build assembles one commodity's Subgraph in the scratch b.s from the
// stream commodity's edge map: candidate member edges in ascending
// global order, the reach/co-reach trim (edges that cannot carry
// dummy→sink flow are dropped — flow routed onto them would strand at
// a dead end and violate flow balance), then local topo order, CSR
// adjacency and the distinguished local indexes. Cost is O(k log k) in
// the commodity's own edge count.
func (b *builder) build(xc *Commodity, sc *stream.Commodity, procHalf, wireHalf []graph.EdgeID) error {
	s := &b.s

	// Candidate member edges in ascending extended-ID order: the
	// (procHalf, wireHalf) pairs follow physical edge order, and the
	// dummy links have the largest IDs of all.
	b.phys = b.phys[:0]
	for e := range sc.Edges {
		b.phys = append(b.phys, e)
	}
	slices.Sort(b.phys)
	s.Edges, s.Beta, s.Cost = s.Edges[:0], s.Beta[:0], s.Cost[:0]
	for _, e := range b.phys {
		params := sc.Edges[e]
		s.Edges = append(s.Edges, procHalf[e], wireHalf[e])
		s.Beta = append(s.Beta, params.Beta, 1)
		s.Cost = append(s.Cost, params.Cost, 1)
	}
	s.Edges = append(s.Edges, xc.InputLink, xc.DiffLink)
	s.Beta = append(s.Beta, 1, 1)
	s.Cost = append(s.Cost, 1, 1)

	b.indexNodes()
	b.buildCSR()
	dummy := s.LocalNode(xc.Dummy)
	sink := s.LocalNode(xc.Sink)
	if dummy < 0 || sink < 0 {
		return fmt.Errorf("transform: commodity %q: dummy or sink not in member subgraph", xc.Name)
	}
	b.trim(dummy, sink)
	if err := b.topoSort(); err != nil {
		return fmt.Errorf("transform: commodity %q: %w", xc.Name, err)
	}

	s.Dummy = s.LocalNode(xc.Dummy)
	s.Source = s.LocalNode(xc.Source)
	s.Sink = s.LocalNode(xc.Sink)
	s.InputLink = s.LocalEdge(xc.InputLink)
	s.DiffLink = s.LocalEdge(xc.DiffLink)
	if s.Dummy < 0 || s.Source < 0 || s.Sink < 0 || s.InputLink < 0 || s.DiffLink < 0 {
		return fmt.Errorf("transform: commodity %q: dummy links trimmed away (sink unreachable?)", xc.Name)
	}
	return nil
}

// resized returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// indexNodes (re)derives the sorted member node set and the local
// Tail/Head arrays from the current edge list.
func (b *builder) indexNodes() {
	s := &b.s
	b.ends = b.ends[:0]
	for _, ge := range s.Edges {
		ed := b.g.Edge(ge)
		b.ends = append(b.ends, ed.From, ed.To)
	}
	slices.Sort(b.ends)
	s.Nodes = s.Nodes[:0]
	for i, n := range b.ends {
		if i == 0 || n != b.ends[i-1] {
			s.Nodes = append(s.Nodes, n)
		}
	}
	s.Tail = resized(s.Tail, len(s.Edges))
	s.Head = resized(s.Head, len(s.Edges))
	for le, ge := range s.Edges {
		ed := b.g.Edge(ge)
		s.Tail[le] = s.LocalNode(ed.From)
		s.Head[le] = s.LocalNode(ed.To)
	}
}

// buildCSR fills the CSR adjacency from Tail/Head. Edges are processed
// in ascending local (= global) order, so each per-node list comes out
// ascending.
func (b *builder) buildCSR() {
	s := &b.s
	nn, ne := len(s.Nodes), len(s.Edges)
	s.outIdx = resized(s.outIdx, nn+1)
	s.inIdx = resized(s.inIdx, nn+1)
	clear(s.outIdx)
	clear(s.inIdx)
	for le := 0; le < ne; le++ {
		s.outIdx[s.Tail[le]+1]++
		s.inIdx[s.Head[le]+1]++
	}
	for l := 0; l < nn; l++ {
		s.outIdx[l+1] += s.outIdx[l]
		s.inIdx[l+1] += s.inIdx[l]
	}
	s.outEdges = resized(s.outEdges, ne)
	s.inEdges = resized(s.inEdges, ne)
	b.count = resized(b.count, 2*nn)
	outNext, inNext := b.count[:nn], b.count[nn:]
	copy(outNext, s.outIdx)
	copy(inNext, s.inIdx)
	for le := 0; le < ne; le++ {
		t, h := s.Tail[le], s.Head[le]
		s.outEdges[outNext[t]] = int32(le)
		outNext[t]++
		s.inEdges[inNext[h]] = int32(le)
		inNext[h]++
	}
}

// reachable marks in seen the nodes a DFS from start reaches over adj
// (Out with Head, or In with Tail for the co-reachability direction).
func (b *builder) reachable(seen []bool, start int32, adj func(int32) []int32, to []int32) {
	clear(seen)
	b.stack = append(b.stack[:0], start)
	seen[start] = true
	for len(b.stack) > 0 {
		l := b.stack[len(b.stack)-1]
		b.stack = b.stack[:len(b.stack)-1]
		for _, le := range adj(l) {
			v := to[le]
			if !seen[v] {
				seen[v] = true
				b.stack = append(b.stack, v)
			}
		}
	}
}

// trim drops the edges that cannot carry dummy→sink flow — those whose
// tail is not reachable from the dummy or whose head does not co-reach
// the sink — compacting Edges/Beta/Cost in place and re-deriving the
// node set and adjacency when anything went.
func (b *builder) trim(dummy, sink int32) {
	s := &b.s
	nn := len(s.Nodes)
	b.mark = resized(b.mark, 2*nn)
	reach, coreach := b.mark[:nn], b.mark[nn:]
	b.reachable(reach, dummy, s.Out, s.Head)
	b.reachable(coreach, sink, s.In, s.Tail)
	kept := 0
	for le := range s.Edges {
		if reach[s.Tail[le]] && coreach[s.Head[le]] {
			s.Edges[kept], s.Beta[kept], s.Cost[kept] = s.Edges[le], s.Beta[le], s.Cost[le]
			kept++
		}
	}
	if kept == len(s.Edges) {
		return
	}
	s.Edges, s.Beta, s.Cost = s.Edges[:kept], s.Beta[:kept], s.Cost[:kept]
	b.indexNodes()
	b.buildCSR()
}

// topoSort computes Topo/revTopo with Kahn's algorithm and a min-heap
// frontier over local indexes, then the two topology constants the
// solver reads off them: the branch list and the longest-path depth.
// Local index order is global node-ID order, so min-local-first equals
// the min-global-ID-first tie-break of graph.TopoSortFiltered. Returns
// graph.ErrCycle on a cyclic member subgraph.
func (b *builder) topoSort() error {
	s := &b.s
	nn := len(s.Nodes)
	b.count = resized(b.count, nn)
	indeg := b.count
	clear(indeg)
	for _, h := range s.Head {
		indeg[h]++
	}
	// An ascending array satisfies the heap property, so the initial
	// frontier needs no sift-up pass.
	frontier := int32Heap(b.stack[:0])
	for l := 0; l < nn; l++ {
		if indeg[l] == 0 {
			frontier = append(frontier, int32(l))
		}
	}
	s.Topo = s.Topo[:0]
	for len(frontier) > 0 {
		l := frontier.pop()
		s.Topo = append(s.Topo, l)
		for _, le := range s.Out(l) {
			h := s.Head[le]
			indeg[h]--
			if indeg[h] == 0 {
				frontier.push(h)
			}
		}
	}
	b.stack = frontier
	if len(s.Topo) != nn {
		return graph.ErrCycle
	}
	s.revTopo = resized(s.revTopo, nn)
	for i, l := range s.Topo {
		s.revTopo[nn-1-i] = l
	}

	depth := indeg // all zero once every node has been popped
	s.branch, s.depth = s.branch[:0], 0
	for _, l := range s.Topo {
		outs := s.Out(l)
		if len(outs) >= 2 {
			s.branch = append(s.branch, l)
		}
		for _, le := range outs {
			h := s.Head[le]
			if d := depth[l] + 1; d > depth[h] {
				depth[h] = d
				s.depth = max(s.depth, d)
			}
		}
	}
	return nil
}

// commit stages the finished commodity: its scalars go to dst now, its
// arrays to the slabs, hot wave arrays first in each block.
func (b *builder) commit(dst *Subgraph) {
	s := &b.s
	*dst = Subgraph{
		Dummy: s.Dummy, Source: s.Source, Sink: s.Sink,
		InputLink: s.InputLink, DiffLink: s.DiffLink, depth: s.depth,
	}
	b.dims = append(b.dims, subgraphDims{len(s.Nodes), len(s.Edges), len(s.branch)})
	b.i32 = append(b.i32, s.revTopo...)
	b.i32 = append(b.i32, s.outIdx...)
	b.i32 = append(b.i32, s.outEdges...)
	b.i32 = append(b.i32, s.Head...)
	b.i32 = append(b.i32, s.branch...)
	b.i32 = append(b.i32, s.Topo...)
	b.i32 = append(b.i32, s.Tail...)
	b.i32 = append(b.i32, s.inIdx...)
	b.i32 = append(b.i32, s.inEdges...)
	b.f64 = append(b.f64, s.Cost...)
	b.f64 = append(b.f64, s.Beta...)
	b.nodes = append(b.nodes, s.Nodes...)
	b.edges = append(b.edges, s.Edges...)
}

// carve fits the staged slabs to their contents and slices every
// committed commodity's arrays out of them, in commit's order.
func (b *builder) carve(sub []Subgraph) {
	i32, f64 := fitted(b.i32), fitted(b.f64)
	nodes, edges := fitted(b.nodes), fitted(b.edges)
	for j, d := range b.dims {
		s := &sub[j]
		s.revTopo = take(&i32, d.nodes)
		s.outIdx = take(&i32, d.nodes+1)
		s.outEdges = take(&i32, d.edges)
		s.Head = take(&i32, d.edges)
		s.branch = take(&i32, d.branch)
		s.Topo = take(&i32, d.nodes)
		s.Tail = take(&i32, d.edges)
		s.inIdx = take(&i32, d.nodes+1)
		s.inEdges = take(&i32, d.edges)
		s.Cost = take(&f64, d.edges)
		s.Beta = take(&f64, d.edges)
		s.Nodes = take(&nodes, d.nodes)
		s.Edges = take(&edges, d.edges)
	}
}

// fitted returns s without spare capacity, copying only when the
// staging estimate overshot: the slabs live as long as the Extended
// (the server's history ring keeps several), so slack is not free.
func fitted[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// take cuts the next n elements off the front of *slab, capacity
// clipped so an append through the result cannot reach its neighbour.
func take[T any](slab *[]T, n int) []T {
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// int32Heap is a binary min-heap of local indexes backing the local
// topological sort's deterministic min-first frontier.
type int32Heap []int32

func (h *int32Heap) push(v int32) {
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

func (h *int32Heap) pop() int32 {
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
