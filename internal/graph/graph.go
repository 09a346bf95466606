// Package graph provides the directed-graph substrate used by the
// stream-processing model: adjacency bookkeeping, DAG validation,
// topological ordering, and reachability queries.
//
// Nodes are dense integer IDs assigned by the graph; callers keep their
// own name→ID maps (internal/stream does exactly that). Edges are also
// dense integer IDs so per-edge attributes (bandwidth, shrinkage,
// consumption) can live in parallel slices owned by the caller.
package graph

import (
	"errors"
	"fmt"
)

// NodeID identifies a node within one Graph. IDs are dense: 0..NumNodes-1.
type NodeID int

// EdgeID identifies an edge within one Graph. IDs are dense: 0..NumEdges-1.
type EdgeID int

// Invalid is returned by lookups that find nothing.
const Invalid = -1

// Edge is a directed edge From -> To.
type Edge struct {
	From NodeID
	To   NodeID
}

// Graph is a mutable directed graph. The zero value is an empty graph
// ready to use. Graph is not safe for concurrent mutation.
type Graph struct {
	edges []Edge
	out   [][]EdgeID // out[n] = edges leaving n
	in    [][]EdgeID // in[n]  = edges entering n
	index map[Edge]EdgeID
}

// New returns an empty graph with capacity hints for n nodes and m edges.
func New(n, m int) *Graph {
	return &Graph{
		edges: make([]Edge, 0, m),
		out:   make([][]EdgeID, 0, n),
		in:    make([][]EdgeID, 0, n),
		index: make(map[Edge]EdgeID, m),
	}
}

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() NodeID {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return NodeID(len(g.out) - 1)
}

// AddNodes appends n nodes and returns the ID of the first.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.out))
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return first
}

// ErrDuplicateEdge is returned by AddEdge for an edge that already exists.
var ErrDuplicateEdge = errors.New("graph: duplicate edge")

// ErrNoSuchNode is returned when an endpoint is out of range.
var ErrNoSuchNode = errors.New("graph: no such node")

// AddEdge inserts the directed edge from -> to and returns its ID.
// Self-loops are rejected: the stream model never needs them and they
// would break per-commodity DAG validation.
func (g *Graph) AddEdge(from, to NodeID) (EdgeID, error) {
	if !g.HasNode(from) || !g.HasNode(to) {
		return Invalid, fmt.Errorf("%w: edge (%d,%d)", ErrNoSuchNode, from, to)
	}
	if from == to {
		return Invalid, fmt.Errorf("graph: self-loop on node %d", from)
	}
	key := Edge{From: from, To: to}
	if _, ok := g.index[key]; ok {
		return Invalid, fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, from, to)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, key)
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.index[key] = id
	return id, nil
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// HasNode reports whether n is a valid node ID.
func (g *Graph) HasNode(n NodeID) bool { return n >= 0 && int(n) < len(g.out) }

// Edge returns the endpoints of edge e.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// EdgeBetween returns the edge from -> to, or Invalid if absent.
func (g *Graph) EdgeBetween(from, to NodeID) EdgeID {
	if id, ok := g.index[Edge{From: from, To: to}]; ok {
		return id
	}
	return Invalid
}

// Out returns the IDs of edges leaving n. The slice is owned by the
// graph; callers must not modify it.
func (g *Graph) Out(n NodeID) []EdgeID { return g.out[n] }

// In returns the IDs of edges entering n. The slice is owned by the
// graph; callers must not modify it. No solver path reads in-edges of a
// full graph: it is the reference the in-adjacency parity tests compare
// SubDAG.In (TestQuickSubDAGMatchesFilteredGraph) and transform's
// Subgraph.In (TestSubgraphAdjacencyMatchesFilteredScan) against.
func (g *Graph) In(n NodeID) []EdgeID { return g.in[n] }

// OutDegree reports the number of edges leaving n.
func (g *Graph) OutDegree(n NodeID) int { return len(g.out[n]) }

// InDegree reports the number of edges entering n.
func (g *Graph) InDegree(n NodeID) int { return len(g.in[n]) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.NumNodes(), g.NumEdges())
	c.AddNodes(g.NumNodes())
	for _, e := range g.edges {
		if _, err := c.AddEdge(e.From, e.To); err != nil {
			// The source graph cannot contain duplicates or bad
			// endpoints, so this is unreachable.
			panic(err)
		}
	}
	return c
}
