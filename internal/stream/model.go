// Package stream defines the paper's stream-processing model (§2): a
// capacitated network of servers and sinks, commodities (query streams)
// with per-edge shrinkage factors and processing costs, concave
// utilities of admitted rates, and the task→server assignment view of
// Figure 1.
package stream

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/utility"
)

// NodeKind distinguishes processing nodes (set P in the paper, which
// includes sources) from sinks (set J, which only receive data).
type NodeKind int

// Node kinds.
const (
	Processing NodeKind = iota + 1
	Sink
)

// String returns the kind name.
func (k NodeKind) String() string {
	switch k {
	case Processing:
		return "processing"
	case Sink:
		return "sink"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Network is the physical graph G0 = (N0, E0): processing nodes with
// computing capacity C_u and links with bandwidth B_ik.
type Network struct {
	G         *graph.Graph
	Names     []string // per node
	Kinds     []NodeKind
	Capacity  []float64 // per node; ignored for sinks
	Bandwidth []float64 // per edge

	byName map[string]graph.NodeID
	// linkNames[e] is link e's resource name (LinkName), made once when
	// the link is added and shared by every version and every report.
	linkNames []string

	// Set on the network of a Problem.NewVersion: the topology (G, Names,
	// Kinds, byName, linkNames) and, until this network writes one, the
	// Capacity and Bandwidth vectors belong to an older version too.
	// Writers copy what is shared first.
	sharedTopology, sharedCapacity, sharedBandwidth bool
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		G:      graph.New(0, 0),
		byName: make(map[string]graph.NodeID),
	}
}

// AddServer adds a processing node with the given capacity.
func (n *Network) AddServer(name string, capacity float64) (graph.NodeID, error) {
	return n.addNode(name, Processing, capacity)
}

// AddSink adds a sink node. Sinks cannot process and must have no
// outgoing links.
func (n *Network) AddSink(name string) (graph.NodeID, error) {
	return n.addNode(name, Sink, 0)
}

func (n *Network) addNode(name string, kind NodeKind, capacity float64) (graph.NodeID, error) {
	n.ownTopology()
	if _, ok := n.byName[name]; ok {
		return graph.Invalid, fmt.Errorf("stream: duplicate node name %q", name)
	}
	if kind == Processing && (capacity <= 0 || math.IsNaN(capacity)) {
		return graph.Invalid, fmt.Errorf("stream: node %q: capacity must be positive, got %g", name, capacity)
	}
	id := n.G.AddNode()
	n.Names = append(n.Names, name)
	n.Kinds = append(n.Kinds, kind)
	n.Capacity = append(n.Capacity, capacity)
	n.byName[name] = id
	return id, nil
}

// AddLink adds a directed link with the given bandwidth.
func (n *Network) AddLink(from, to graph.NodeID, bandwidth float64) (graph.EdgeID, error) {
	if bandwidth <= 0 || math.IsNaN(bandwidth) {
		return graph.Invalid, fmt.Errorf("stream: link (%s,%s): bandwidth must be positive, got %g",
			n.name(from), n.name(to), bandwidth)
	}
	if n.G.HasNode(from) && n.Kinds[from] == Sink {
		return graph.Invalid, fmt.Errorf("stream: sink %q cannot have outgoing links", n.name(from))
	}
	n.ownTopology()
	e, err := n.G.AddEdge(from, to)
	if err != nil {
		return graph.Invalid, err
	}
	n.Bandwidth = append(n.Bandwidth, bandwidth)
	n.linkNames = append(n.linkNames, n.Names[from]+"->"+n.Names[to])
	return e, nil
}

// LinkName returns link e's resource name, "from->to" by its end nodes'
// names: the one string per link that every usage report and
// attribution naming it shares.
func (n *Network) LinkName(e graph.EdgeID) string { return n.linkNames[e] }

// NodeByName looks a node up by name.
func (n *Network) NodeByName(name string) (graph.NodeID, bool) {
	id, ok := n.byName[name]
	return id, ok
}

func (n *Network) name(id graph.NodeID) string {
	if n.G.HasNode(id) {
		return n.Names[id]
	}
	return fmt.Sprintf("#%d", id)
}

// EdgeParams are the per-commodity per-edge parameters: processing one
// unit of the commodity at the edge's tail consumes Cost units of the
// tail's resource and produces Beta units of flow on the edge.
type EdgeParams struct {
	Beta float64 // shrinkage (<1) / expansion (>1) factor, > 0
	Cost float64 // resource units per input unit, > 0
}

// Commodity is one query stream: a source, a sink, a maximum offered
// rate λ, a utility of the admitted rate, and the per-edge parameters
// on the edges of its DAG G_j.
type Commodity struct {
	Name    string
	Source  graph.NodeID
	SinkID  graph.NodeID
	MaxRate float64
	Utility utility.Function

	// Edges maps the edges of the commodity's subgraph G_j to their
	// parameters. Edges absent from the map are not usable by this
	// commodity.
	Edges map[graph.EdgeID]EdgeParams
}

// SortedEdges appends the edges of the commodity's subgraph to buf[:0]
// in ascending edge-ID order — the deterministic walk of Edges that
// validation, the transform and the JSON encoding share.
func (c *Commodity) SortedEdges(buf []graph.EdgeID) []graph.EdgeID {
	buf = buf[:0]
	for e := range c.Edges {
		buf = append(buf, e)
	}
	slices.Sort(buf)
	return buf
}

// SameStructure reports whether o is c up to its offered rate and
// utility: the same name, source, sink and per-edge parameters, hence
// the same subgraph G_j and the same §3 transform of it.
func (c *Commodity) SameStructure(o *Commodity) bool {
	if c.Name != o.Name || c.Source != o.Source || c.SinkID != o.SinkID || len(c.Edges) != len(o.Edges) {
		return false
	}
	for e, params := range c.Edges {
		if other, ok := o.Edges[e]; !ok || other != params {
			return false
		}
	}
	return true
}

// Problem is a complete problem instance: the network plus the
// commodities to be admitted, routed, and allocated.
//
// Commodities is written only by the methods of this package
// (AddCommodity, RemoveCommodity and the setters in clone.go), which
// keep the name and sink indexes below in step with it.
type Problem struct {
	Net         *Network
	Commodities []*Commodity

	// byName and bySink map a commodity's name and its sink to its
	// position in Commodities. Versions share them (sharedIndex) until
	// membership changes.
	byName      map[string]int
	bySink      map[graph.NodeID]int
	sharedIndex bool
	// shared marks a NewVersion: the *Commodity values belong to an older
	// version too, so a setter replaces the one it is about to write with
	// a copy. The Commodities slice itself is always this problem's own.
	shared bool
}

// NewProblem wraps a network into an empty problem.
func NewProblem(net *Network) *Problem {
	return &Problem{Net: net}
}

// AddCommodity registers a commodity. Parameters are attached afterward
// with SetEdge.
func (p *Problem) AddCommodity(name string, source, sink graph.NodeID, maxRate float64, u utility.Function) (*Commodity, error) {
	if !p.Net.G.HasNode(source) || !p.Net.G.HasNode(sink) {
		return nil, fmt.Errorf("stream: commodity %q: unknown source or sink", name)
	}
	if p.Net.Kinds[source] != Processing {
		return nil, fmt.Errorf("stream: commodity %q: source %q is not a processing node", name, p.Net.name(source))
	}
	if p.Net.Kinds[sink] != Sink {
		return nil, fmt.Errorf("stream: commodity %q: sink %q is not a sink node", name, p.Net.name(sink))
	}
	if maxRate <= 0 || math.IsNaN(maxRate) {
		return nil, fmt.Errorf("stream: commodity %q: max rate must be positive, got %g", name, maxRate)
	}
	if u == nil {
		return nil, fmt.Errorf("stream: commodity %q: nil utility", name)
	}
	// The earliest commodity in conflict decides the error, its name
	// before its sink.
	dup, taken := p.byName[name]
	user, used := p.bySink[sink]
	if taken && (!used || dup <= user) {
		return nil, fmt.Errorf("stream: duplicate commodity name %q: %w", name, ErrConflict)
	}
	if used {
		return nil, fmt.Errorf("stream: commodity %q: sink %q already used by %q: %w", name, p.Net.name(sink), p.Commodities[user].Name, ErrConflict)
	}
	c := &Commodity{
		Name:    name,
		Source:  source,
		SinkID:  sink,
		MaxRate: maxRate,
		Utility: u,
		Edges:   make(map[graph.EdgeID]EdgeParams),
	}
	p.ownIndex()
	p.byName[name], p.bySink[sink] = len(p.Commodities), len(p.Commodities)
	p.Commodities = append(p.Commodities, c)
	return c, nil
}

// ownIndex makes the name and sink indexes this problem's own, before a
// change of membership or of a name writes them.
func (p *Problem) ownIndex() {
	switch {
	case p.byName == nil:
		p.byName, p.bySink = make(map[string]int), make(map[graph.NodeID]int)
	case p.sharedIndex:
		p.byName, p.bySink = maps.Clone(p.byName), maps.Clone(p.bySink)
	}
	p.sharedIndex = false
}

// SetEdge attaches edge e to commodity c's subgraph with the given
// parameters. It writes c's own Edges map, so it is for a commodity this
// problem created with AddCommodity, not one a NewVersion inherited.
func (p *Problem) SetEdge(c *Commodity, e graph.EdgeID, params EdgeParams) error {
	if int(e) < 0 || int(e) >= p.Net.G.NumEdges() {
		return fmt.Errorf("stream: commodity %q: unknown edge %d", c.Name, e)
	}
	if params.Beta <= 0 || math.IsNaN(params.Beta) {
		return fmt.Errorf("stream: commodity %q edge %d: beta must be positive, got %g", c.Name, e, params.Beta)
	}
	if params.Cost <= 0 || math.IsNaN(params.Cost) {
		return fmt.Errorf("stream: commodity %q edge %d: cost must be positive, got %g", c.Name, e, params.Cost)
	}
	c.Edges[e] = params
	return nil
}

// errValidate is the sentinel wrapped by every Validate failure.
var errValidate = errors.New("stream: invalid problem")

// Validate checks the structural assumptions of §2:
//   - every commodity subgraph G_j is a DAG,
//   - the sink is reachable from the source within G_j,
//   - sinks never appear as edge tails in any G_j,
//   - Property 1: the product of β along every source→node path is
//     path-independent (checked via node potentials g_n(j)),
//   - utilities are concave and increasing on [0, λ_j].
//
// Each commodity is checked on a sparse local index of its own
// subgraph, so the total cost is O(Σ_j member_j), not O(J·(n+m)).
func (p *Problem) Validate() error {
	return p.ValidateSubset(nil)
}

// ValidateSubset runs Validate's checks restricted to the commodities
// at the given indices into p.Commodities (all of them when incl is
// nil). Subset builds (sharding) validate only their own commodities,
// keeping a shard's cost proportional to its own footprint.
func (p *Problem) ValidateSubset(incl []int) error {
	if len(p.Commodities) == 0 {
		return fmt.Errorf("%w: no commodities", errValidate)
	}
	var v commodityView // one set of buffers for every commodity
	if incl == nil {
		for _, c := range p.Commodities {
			if err := p.validateCommodity(&v, c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, gi := range incl {
		if gi < 0 || gi >= len(p.Commodities) {
			return fmt.Errorf("%w: commodity index %d out of range [0,%d)", errValidate, gi, len(p.Commodities))
		}
		if err := p.validateCommodity(&v, p.Commodities[gi]); err != nil {
			return err
		}
	}
	return nil
}

// commodityView is one commodity's subgraph G_j laid out for the §2
// checks: the shared sparse index over its member edges, their
// topological order, and the member nodes reachable from the source —
// each worked out once per commodity. Validation and potential sweeps
// walk these arrays, so checking a commodity costs O(k log k) in its
// own edge count instead of O(n+m) full-graph passes, and the buffers
// are reused from one commodity to the next.
type commodityView struct {
	ix    graph.SubDAG
	edges []graph.EdgeID // member edges, ascending
	order []int32        // topological order, local node indexes
	reach []bool         // reachable from the source, per local node

	pot      []float64 // node potentials g_n(j), per local node
	assigned []bool    // potential fixed by an in-edge already
}

// load points the view at commodity c. It returns graph.ErrCycle when
// G_j is cyclic.
func (v *commodityView) load(g *graph.Graph, c *Commodity) error {
	v.edges = c.SortedEdges(v.edges)
	v.ix.Index(g, v.edges)
	var err error
	if v.order, err = v.ix.Topo(v.order); err != nil {
		return err
	}
	v.reach = v.ix.Reach(v.reach, v.ix.LocalNode(c.Source), true)
	return nil
}

func (p *Problem) validateCommodity(v *commodityView, c *Commodity) error {
	if err := v.load(p.Net.G, c); err != nil {
		return fmt.Errorf("%w: commodity %q subgraph is cyclic", errValidate, c.Name)
	}
	ix := &v.ix
	for le, e := range ix.Edges {
		if tail := ix.Nodes[ix.Tail[le]]; p.Net.Kinds[tail] == Sink {
			return fmt.Errorf("%w: commodity %q: edge %d leaves sink %q",
				errValidate, c.Name, e, p.Net.name(tail))
		}
	}
	if sink := ix.LocalNode(c.SinkID); sink < 0 || !v.reach[sink] {
		return fmt.Errorf("%w: commodity %q: sink %q unreachable from source %q",
			errValidate, c.Name, p.Net.name(c.SinkID), p.Net.name(c.Source))
	}
	if err := v.potentials(p, c); err != nil {
		return fmt.Errorf("%w: commodity %q: %v", errValidate, c.Name, err)
	}
	return c.ValidateUtility()
}

// ValidateUtility checks that the commodity's utility is concave and
// increasing on [0, λ_j] — the one check of Validate that a change of
// parameters (offered rate, utility) can break; the others depend on
// the subgraph alone.
func (c *Commodity) ValidateUtility() error {
	if err := utility.Validate(c.Utility, c.MaxRate); err != nil {
		return fmt.Errorf("%w: commodity %q: %v", errValidate, c.Name, err)
	}
	return nil
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(a) + math.Abs(b))
}
