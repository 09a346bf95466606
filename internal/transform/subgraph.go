package transform

import (
	"fmt"
	"slices"

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
// ascending global edge-ID order, matching a filtered out-edge scan.
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
	// order. No solver path walks in-edges; one that needs them scans
	// Head.
	outIdx   []int32
	outEdges []int32

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

// CSR returns the out-adjacency Out slices: the out-edges of local
// node l are outEdges[outIdx[l]:outIdx[l+1]]. Hot loops that visit
// every node hold the two arrays in locals instead of going through
// the header per node. Callers must not modify them.
func (s *Subgraph) CSR() (outIdx, outEdges []int32) { return s.outIdx, s.outEdges }

// RevTopo returns the cached reverse of Topo, the processing order of
// the upstream marginal-cost wave. Callers must not modify it.
func (s *Subgraph) RevTopo() []int32 { return s.revTopo }

// Branch returns, in Topo order, the local nodes with two or more
// member out-edges. At every other node the routing fraction is pinned
// (one out-edge carries everything, the sink none), so the update Γ
// visits only these. Callers must not modify the slice.
func (s *Subgraph) Branch() []int32 { return s.branch }

// Depth returns the number of edges on the longest member path — the L
// in the paper's O(L) message-round analysis. A topology constant,
// computed once by Build.
func (s *Subgraph) Depth() int { return int(s.depth) }

// SinkPotential is g_sink: the β path product from the dummy node to the
// sink over member edges, the difference link excluded (path-independent
// by Property 1). One source unit admitted arrives as SinkPotential sink
// units; a sink the walk never reaches reports 1.
func (s *Subgraph) SinkPotential() float64 {
	g := make([]float64, s.NumNodes())
	g[s.Dummy] = 1
	for _, ln := range s.Topo {
		if g[ln] == 0 {
			continue
		}
		for _, le := range s.Out(ln) {
			if le == s.DiffLink {
				continue
			}
			if head := s.Head[le]; g[head] == 0 {
				g[head] = g[ln] * s.Beta[le]
			}
		}
	}
	if g[s.Sink] == 0 {
		return 1
	}
	return g[s.Sink]
}

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
	n += int64(len(s.outIdx)+len(s.outEdges)) * i32Size
	return n
}

// builder assembles every Subgraph of one Build. Each commodity is
// worked out in scratch buffers reused from one commodity to the next
// (the shared index ix, the arrays of s, the sort, mark and depth
// buffers), then appended in its final compact form to four
// staging slabs; carve hands the finished slabs out as the Subgraph
// slices. A Build thus makes a handful of large allocations instead of
// a dozen small ones per commodity, and each commodity's arrays end up
// contiguous.
type builder struct {
	x *Extended // the endpoints of the extended edges

	ix    graph.SubDAG   // the member subgraph's structure
	s     Subgraph       // Beta, Cost and the orders of the commodity under construction
	phys  []graph.EdgeID // its physical edges, sorted
	ext   []graph.EdgeID // its candidate, then surviving, extended edges
	reach []bool         // the trim's marks: reachable from the dummy,
	back  []bool         // and reaching the sink
	depth []int32        // longest path to each node

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
func newBuilder(x *Extended, cs []*stream.Commodity, order []int) *builder {
	ne := 0
	for _, gi := range order {
		ne += 2*len(cs[gi].Edges) + 2
	}
	nn := ne + len(order)
	return &builder{
		x:     x,
		i32:   make([]int32, 0, 4*nn+3*ne),
		f64:   make([]float64, 0, 2*ne),
		nodes: make([]graph.NodeID, 0, nn),
		edges: make([]graph.EdgeID, 0, ne),
		dims:  make([]subgraphDims, 0, len(order)),
	}
}

// build assembles one commodity's Subgraph in the scratch b.ix and b.s
// from the stream commodity's edge map: candidate member edges in
// ascending global order, the reach/co-reach trim (edges that cannot
// carry dummy→sink flow are dropped — flow routed onto them would
// strand at a dead end and violate flow balance), then local topo
// order, CSR adjacency and the distinguished local indexes. Cost is
// O(k log k) in the commodity's own edge count.
func (b *builder) build(xc *Commodity, sc *stream.Commodity) error {
	s, ix := &b.s, &b.ix

	// Candidate member edges in ascending extended-ID order: link e's
	// halves (i, n_ik) and (n_ik, k) are edges 2e and 2e+1, and the
	// dummy links have the largest IDs of all.
	b.phys = sc.SortedEdges(b.phys)
	b.ext, s.Beta, s.Cost = b.ext[:0], s.Beta[:0], s.Cost[:0]
	for _, e := range b.phys {
		params := sc.Edges[e]
		b.ext = append(b.ext, 2*e, 2*e+1)
		s.Beta = append(s.Beta, params.Beta, 1)
		s.Cost = append(s.Cost, params.Cost, 1)
	}
	b.ext = append(b.ext, xc.InputLink, xc.DiffLink)
	s.Beta = append(s.Beta, 1, 1)
	s.Cost = append(s.Cost, 1, 1)

	ix.Index(b.x, b.ext)
	b.trim(ix.LocalNode(xc.Dummy), ix.LocalNode(xc.Sink))
	if err := b.topoSort(); err != nil {
		return fmt.Errorf("transform: commodity %q: %w", xc.Name, err)
	}

	s.Dummy = ix.LocalNode(xc.Dummy)
	s.Source = ix.LocalNode(xc.Source)
	s.Sink = ix.LocalNode(xc.Sink)
	s.InputLink = ix.LocalEdge(xc.InputLink)
	s.DiffLink = ix.LocalEdge(xc.DiffLink)
	if s.Dummy < 0 || s.Source < 0 || s.Sink < 0 || s.InputLink < 0 || s.DiffLink < 0 {
		return fmt.Errorf("transform: commodity %q: dummy links trimmed away (sink unreachable?)", xc.Name)
	}
	return nil
}

// trim drops the edges that cannot carry dummy→sink flow — those whose
// tail is not reachable from the dummy or whose head does not co-reach
// the sink — compacting the edge list and Beta/Cost in place and
// re-indexing when anything went.
func (b *builder) trim(dummy, sink int32) {
	s, ix := &b.s, &b.ix
	b.reach = ix.Reach(b.reach, dummy, true)
	b.back = ix.Reach(b.back, sink, false)
	kept := 0
	for le, e := range b.ext {
		if b.reach[ix.Tail[le]] && b.back[ix.Head[le]] {
			b.ext[kept], s.Beta[kept], s.Cost[kept] = e, s.Beta[le], s.Cost[le]
			kept++
		}
	}
	if kept == len(b.ext) {
		return
	}
	b.ext, s.Beta, s.Cost = b.ext[:kept], s.Beta[:kept], s.Cost[:kept]
	ix.Index(b.x, b.ext)
}

// topoSort computes Topo/revTopo from the shared index, then the two
// topology constants the solver reads off them: the branch list and the
// longest-path depth. Returns graph.ErrCycle on a cyclic member
// subgraph.
func (b *builder) topoSort() error {
	s, ix := &b.s, &b.ix
	var err error
	if s.Topo, err = ix.Topo(s.Topo); err != nil {
		return err
	}
	s.revTopo = append(s.revTopo[:0], s.Topo...)
	slices.Reverse(s.revTopo)

	b.depth = slices.Grow(b.depth[:0], len(s.Topo))[:len(s.Topo)]
	clear(b.depth)
	s.branch, s.depth = s.branch[:0], 0
	for _, l := range s.Topo {
		outs := ix.Out(l)
		if len(outs) >= 2 {
			s.branch = append(s.branch, l)
		}
		for _, le := range outs {
			h := ix.Head[le]
			if d := b.depth[l] + 1; d > b.depth[h] {
				b.depth[h] = d
				s.depth = max(s.depth, d)
			}
		}
	}
	return nil
}

// commit stages the finished commodity: its scalars go to dst now, its
// arrays to the slabs, hot wave arrays first in each block.
func (b *builder) commit(dst *Subgraph) {
	s, ix := &b.s, &b.ix
	*dst = Subgraph{
		Dummy: s.Dummy, Source: s.Source, Sink: s.Sink,
		InputLink: s.InputLink, DiffLink: s.DiffLink, depth: s.depth,
	}
	b.dims = append(b.dims, subgraphDims{len(ix.Nodes), len(ix.Edges), len(s.branch)})
	b.i32 = append(b.i32, s.revTopo...)
	b.i32 = append(b.i32, ix.OutIdx...)
	b.i32 = append(b.i32, ix.OutEdges...)
	b.i32 = append(b.i32, ix.Head...)
	b.i32 = append(b.i32, s.branch...)
	b.i32 = append(b.i32, s.Topo...)
	b.i32 = append(b.i32, ix.Tail...)
	b.f64 = append(b.f64, s.Cost...)
	b.f64 = append(b.f64, s.Beta...)
	b.nodes = append(b.nodes, ix.Nodes...)
	b.edges = append(b.edges, ix.Edges...)
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
