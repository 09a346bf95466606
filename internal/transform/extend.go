// Package transform implements the paper's §3 problem transformation:
//
//  1. every physical link (i,k) becomes a *bandwidth node* n_ik with
//     capacity B_ik, unifying link and CPU constraints into one
//     per-node resource constraint (Figure 2);
//  2. every commodity j gets a *dummy node* s̄_j feeding the admitted
//     rate over a dummy input link (s̄_j, s_j) and the rejected rate
//     over a dummy difference link (s̄_j, sink_j) whose cost is the
//     utility loss Y (Figure 3, eq. 1);
//  3. capacity constraints move into the objective through convex
//     barrier penalties ε·D_i (Penalty).
//
// The result is the routing problem min A = Y + ε·D that internal/flow,
// internal/gradient and internal/backpressure operate on.
//
// Per-commodity state is held sparsely: each commodity carries a
// Subgraph over only its member nodes and edges (local index maps,
// parameters, topo order, CSR adjacency), so building and iterating J
// commodities costs O(Σ_j member_j), not O(J·(n+m)).
package transform

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/utility"
)

// NodeKind classifies nodes of the extended graph.
type NodeKind int

// Extended-graph node kinds.
const (
	Proc      NodeKind = iota + 1 // original processing node
	Bandwidth                     // n_ik for a physical link
	Dummy                         // s̄_j super-source
	SinkNode                      // original sink
)

// String returns the kind name.
func (k NodeKind) String() string {
	switch k {
	case Proc:
		return "proc"
	case Bandwidth:
		return "bandwidth"
	case Dummy:
		return "dummy"
	case SinkNode:
		return "sink"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Commodity is a commodity on the extended graph: traffic λ arrives at
// the dummy node; the admitted share reaches Sink through the network
// and the rejected share through the difference link.
type Commodity struct {
	Name    string
	Dummy   graph.NodeID // s̄_j: where external traffic r arrives
	Source  graph.NodeID // s_j mapped into the extended graph
	Sink    graph.NodeID
	MaxRate float64
	Utility utility.Function
	Loss    utility.Loss // cost of the difference link

	InputLink graph.EdgeID // (s̄_j, s_j)
	DiffLink  graph.EdgeID // (s̄_j, sink_j)
}

// Extended is the transformed problem instance.
type Extended struct {
	G     *graph.Graph
	Names []string
	Kinds []NodeKind
	// Capacity per node; +Inf for dummy nodes and sinks.
	Capacity []float64
	// Penalty is the barrier family D; Epsilon scales it (cost = ε·D).
	Penalty utility.Penalty
	Epsilon float64

	Commodities []Commodity

	// SharedNodes is the length of the node prefix shared by every
	// build over the same network: the N original nodes followed by the
	// M bandwidth nodes, in identical ID order regardless of which
	// commodity subset was built. Dummy nodes (per-commodity,
	// uncapacitated) follow and differ between subset builds, so
	// cross-shard usage exchange is defined over [0, SharedNodes). Every
	// capacitated node lies in the prefix: a sum over the barrier terms
	// walks it and skips the +Inf capacities (sinks), whose terms are
	// exactly zero.
	SharedNodes int

	// External[i] is flow through shared node i contributed by
	// commodities outside this build (other shards). The barrier is
	// evaluated at own + external usage, so the marginal wave prices
	// congestion at the global operating point. Nil means zero external
	// flow everywhere, and so does the all-zero vector a lone shard
	// holds: f + 0 is f bit for bit.
	External []float64

	// Sub[j] is commodity j's member subgraph in compact local
	// indexing: parameters, topo order, and adjacency over only the
	// edges the commodity can use, trimmed to dummy→sink paths. This is
	// the only per-commodity representation; a global edge ID maps into
	// it through Sub[j].LocalEdge.
	Sub []Subgraph

	// OrigEdge maps extended edge -> the original physical edge it
	// derives from (graph.Invalid for dummy links). Original nodes keep
	// their IDs.
	OrigEdge []graph.EdgeID

	// src[j] is the stream commodity Commodities[j] was built from (or
	// last reparameterized to), and capacity and bandwidth the network
	// vectors: what Changes compares a later problem against, by
	// identity first.
	src                 []*stream.Commodity
	capacity, bandwidth []float64
}

// Options configures the transformation.
type Options struct {
	// Penalty is the barrier family; nil means utility.Reciprocal (the
	// paper's example D(z) = 1/(C−z)).
	Penalty utility.Penalty
	// Epsilon scales the penalty term (the paper's ε; §6 uses 0.2).
	// Zero or negative means 0.2.
	Epsilon float64
	// Commodities restricts the build to the given indices into
	// p.Commodities (ascending, no duplicates). Nil builds all of them.
	// The shared node prefix (originals + bandwidth nodes) is identical
	// across subset builds over the same network; only the dummy nodes
	// and per-commodity subgraphs shrink. Validation is restricted to
	// the included commodities, so a subset build's cost is proportional
	// to the subset's footprint.
	Commodities []int
}

// Build constructs the extended problem from a validated stream.Problem.
// The resulting graph has N+M+J nodes and 2M+2J edges, as stated in §3.
func Build(p *stream.Problem, opts Options) (*Extended, error) {
	incl := opts.Commodities
	if incl != nil {
		for i, gi := range incl {
			if gi < 0 || gi >= len(p.Commodities) {
				return nil, fmt.Errorf("transform: commodity index %d out of range [0,%d)", gi, len(p.Commodities))
			}
			if i > 0 && gi <= incl[i-1] {
				return nil, fmt.Errorf("transform: commodity indices must be strictly ascending")
			}
		}
	}
	if err := p.ValidateSubset(incl); err != nil {
		return nil, err
	}
	if opts.Penalty == nil {
		opts.Penalty = utility.Reciprocal{}
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 0.2
	}

	og := p.Net.G
	n, m := og.NumNodes(), og.NumEdges()
	j := len(p.Commodities)
	if incl != nil {
		j = len(incl)
	}
	x := &Extended{
		G:           graph.New(n+m+j, 2*m+2*j),
		Penalty:     opts.Penalty,
		Epsilon:     opts.Epsilon,
		SharedNodes: n + m,
		capacity:    p.Net.Capacity,
		bandwidth:   p.Net.Bandwidth,
	}

	addNode := func(name string, kind NodeKind, capacity float64) graph.NodeID {
		id := x.G.AddNode()
		x.Names = append(x.Names, name)
		x.Kinds = append(x.Kinds, kind)
		x.Capacity = append(x.Capacity, capacity)
		return id
	}
	addEdge := func(from, to graph.NodeID, orig graph.EdgeID) (graph.EdgeID, error) {
		e, err := x.G.AddEdge(from, to)
		if err != nil {
			return graph.Invalid, err
		}
		x.OrigEdge = append(x.OrigEdge, orig)
		return e, nil
	}

	// Original nodes first, preserving IDs.
	for i := 0; i < n; i++ {
		kind := Proc
		capacity := p.Net.Capacity[i]
		if p.Net.Kinds[i] == stream.Sink {
			kind = SinkNode
			capacity = math.Inf(1)
		}
		addNode(p.Net.Names[i], kind, capacity)
	}

	// Bandwidth nodes: one per physical edge, capacity B_ik.
	bwNode := make([]graph.NodeID, m)
	procHalf := make([]graph.EdgeID, m) // (i, n_ik)
	wireHalf := make([]graph.EdgeID, m) // (n_ik, k)
	for e := 0; e < m; e++ {
		edge := og.Edge(graph.EdgeID(e))
		name := fmt.Sprintf("bw:%s>%s", p.Net.Names[edge.From], p.Net.Names[edge.To])
		bwNode[e] = addNode(name, Bandwidth, p.Net.Bandwidth[e])
		var err error
		if procHalf[e], err = addEdge(edge.From, bwNode[e], graph.EdgeID(e)); err != nil {
			return nil, err
		}
		if wireHalf[e], err = addEdge(bwNode[e], edge.To, graph.EdgeID(e)); err != nil {
			return nil, err
		}
	}

	order := incl
	if order == nil {
		order = make([]int, j)
		for i := range order {
			order[i] = i
		}
	}

	// Dummy nodes and links: one super-source per included commodity.
	for _, gi := range order {
		c := p.Commodities[gi]
		d := addNode("dummy:"+c.Name, Dummy, math.Inf(1))
		input, err := addEdge(d, c.Source, graph.Invalid)
		if err != nil {
			return nil, err
		}
		diff, err := addEdge(d, c.SinkID, graph.Invalid)
		if err != nil {
			return nil, err
		}
		x.src = append(x.src, c)
		x.Commodities = append(x.Commodities, Commodity{
			Name:      c.Name,
			Dummy:     d,
			Source:    c.Source,
			Sink:      c.SinkID,
			MaxRate:   c.MaxRate,
			Utility:   c.Utility,
			Loss:      utility.Loss{U: c.Utility, Lambda: c.MaxRate},
			InputLink: input,
			DiffLink:  diff,
		})
	}

	// Per-commodity sparse subgraphs: parameters, trim, topo order, and
	// CSR adjacency over only the member edges. A commodity may use
	// extended edge (i, n_ik) with the original β and c, and (n_ik, k)
	// with β=1, c=1 (one bandwidth unit transfers one flow unit). Dummy
	// links use β=1, c=1 so the difference-link usage equals the
	// rejected rate.
	x.Sub = make([]Subgraph, j)
	b := newBuilder(x.G, p.Commodities, order)
	for ci, gi := range order {
		if err := b.build(&x.Commodities[ci], p.Commodities[gi], procHalf, wireHalf); err != nil {
			return nil, err
		}
		b.commit(&x.Sub[ci])
	}
	b.carve(x.Sub)
	return x, nil
}

// Change is what a problem changes for an extended problem, as Changes
// finds it.
type Change int

const (
	// Unchanged: the problem hands x exactly what x was built or last
	// reparameterized from.
	Unchanged Change = iota
	// Parameters: capacities, bandwidths, offered rates or utilities
	// moved and nothing else, so Reparameterize can stand in for Build.
	Parameters
	// Structure: anything else; only Build will do.
	Structure
)

// Changes compares p, restricted to incl, with what x was built or last
// reparameterized from, in one walk. It is Unchanged when p holds, by
// identity, the capacity and bandwidth vectors and, position by
// position, the very *stream.Commodity values x was built from: a
// problem version shares them until a setter writes one
// (stream.NewVersion). It is Parameters when the network has the same
// topology and every other commodity has the same structure as its
// predecessor; then the error is what Build's validation would have said
// of the changed parameters. Anything else is Structure. An edit made in
// place to the problem x was built or reparameterized from is invisible
// to it: hand Changes a new version or a Clone.
func (x *Extended) Changes(p *stream.Problem, incl []int) (Change, error) {
	if len(incl) != len(x.src) || !x.sameNetwork(p.Net) {
		return Structure, nil
	}
	change := Unchanged
	if !sameVector(p.Net.Capacity, x.capacity) || !sameVector(p.Net.Bandwidth, x.bandwidth) {
		change = Parameters
	}
	var invalid error
	for j, gi := range incl {
		if gi < 0 || gi >= len(p.Commodities) {
			return Structure, nil // Build names the bad index
		}
		c := p.Commodities[gi]
		if c == x.src[j] {
			continue
		}
		if !c.SameStructure(x.src[j]) {
			return Structure, nil
		}
		change = Parameters
		if invalid == nil {
			invalid = c.ValidateUtility()
		}
	}
	return change, invalid
}

// sameVector reports whether a and b are one vector, not two equal ones.
func sameVector(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameNetwork reports whether net has the topology x's shared node
// prefix was laid out from: the same nodes by name and kind, the same
// links in the same order.
func (x *Extended) sameNetwork(net *stream.Network) bool {
	n, m := net.G.NumNodes(), net.G.NumEdges()
	if n+m != x.SharedNodes || 2*m+2*len(x.Commodities) != x.G.NumEdges() {
		return false
	}
	for i := 0; i < n; i++ {
		if net.Names[i] != x.Names[i] || (net.Kinds[i] == stream.Sink) != (x.Kinds[i] == SinkNode) {
			return false
		}
	}
	for e := 0; e < m; e++ {
		// Link e became (from, n_ik) and (n_ik, to), in that order.
		link := net.G.Edge(graph.EdgeID(e))
		if x.G.Edge(graph.EdgeID(2*e)).From != link.From || x.G.Edge(graph.EdgeID(2*e+1)).To != link.To {
			return false
		}
	}
	return true
}

// Reparameterize makes x what Build(p, Options{Commodities: incl})
// would return, in place, given that Changes(p, incl) said the two
// differ in parameters alone: node capacities and link bandwidths,
// and each commodity's offered rate, utility and loss. Everything a
// routing or a workspace is shaped by stays.
func (x *Extended) Reparameterize(p *stream.Problem, incl []int) {
	n := p.Net.G.NumNodes()
	for i, kind := range p.Net.Kinds {
		if kind != stream.Sink {
			x.Capacity[i] = p.Net.Capacity[i]
		}
	}
	copy(x.Capacity[n:x.SharedNodes], p.Net.Bandwidth)
	x.capacity, x.bandwidth = p.Net.Capacity, p.Net.Bandwidth
	for j, gi := range incl {
		c := p.Commodities[gi]
		if c == x.src[j] {
			continue
		}
		x.src[j] = c
		xc := &x.Commodities[j]
		xc.MaxRate, xc.Utility = c.MaxRate, c.Utility
		xc.Loss = utility.Loss{U: c.Utility, Lambda: c.MaxRate}
	}
}

// Continues maps each commodity of x to the commodity of prev it
// continues, or -1 where it continues none: the same name, built from
// the same *stream.Commodity or one of the same structure, on the same
// network. Such a pair has member subgraphs laid out alike — local
// edges in the same order, the dummy links last — so a routing row of
// the one is a routing row of the other, whatever their positions: a
// departure or an arrival elsewhere moves a commodity's dummy node and
// links, never its layout.
func (x *Extended) Continues(prev *Extended) []int {
	out := make([]int, len(x.Commodities))
	for j := range out {
		out[j] = -1
	}
	m2 := x.G.NumEdges() - 2*len(x.Commodities)
	if x.SharedNodes != prev.SharedNodes || prev.G.NumEdges()-2*len(prev.Commodities) != m2 {
		return out
	}
	for e := 0; e < m2; e++ {
		if x.G.Edge(graph.EdgeID(e)) != prev.G.Edge(graph.EdgeID(e)) {
			return out
		}
	}
	at := make(map[string]int, len(prev.Commodities))
	for k := range prev.Commodities {
		at[prev.Commodities[k].Name] = k
	}
	for j := range out {
		k, ok := at[x.Commodities[j].Name]
		if !ok || (x.src[j] != prev.src[k] && !x.src[j].SameStructure(prev.src[k])) {
			continue
		}
		// Same structure, same trim: the check is a guard, not a search.
		if a, b := x.Sub[j].Edges, prev.Sub[k].Edges; len(a) == len(b) && slices.Equal(a[:len(a)-2], b[:len(b)-2]) {
			out[j] = k
		}
	}
	return out
}

// BuildBytes reports the total heap footprint of the per-commodity
// subgraphs — the quantity behind the streamopt_build_bytes gauge.
// O(Σ member) builds make this proportional to the commodities'
// combined path footprint rather than J·(n+m).
func (x *Extended) BuildBytes() int64 {
	var total int64
	for j := range x.Sub {
		total += x.Sub[j].Bytes()
	}
	return total
}

// NumCommodities reports the number of commodities.
func (x *Extended) NumCommodities() int { return len(x.Commodities) }

// IsDiffLink reports whether edge e is the difference link of commodity j.
func (x *Extended) IsDiffLink(j int, e graph.EdgeID) bool {
	return x.Commodities[j].DiffLink == e
}

// PenaltyValue returns ε·D_i(z + External_i) for node i, zero for
// uncapacitated nodes (dummies and sinks). With External set (sharded
// solves) the barrier is evaluated at the global operating point: own
// flow z plus the flow other shards route through the same node.
func (x *Extended) PenaltyValue(i graph.NodeID, z float64) float64 {
	c := x.Capacity[i]
	if math.IsInf(c, 1) {
		return 0
	}
	if int(i) < len(x.External) {
		z += x.External[i]
	}
	return x.Epsilon * x.Penalty.Value(z, c)
}

// ShadowPrice returns ε·D'_i(z) for node i at a usage z that already
// is the global total — no External term is added — and zero for
// uncapacitated nodes: the barrier's congestion price.
func (x *Extended) ShadowPrice(i graph.NodeID, z float64) float64 {
	c := x.Capacity[i]
	if math.IsInf(c, 1) {
		return 0
	}
	return x.Epsilon * x.Penalty.Deriv(z, c)
}

// PenaltyDeriv returns ε·D'_i(z + External_i) for node i, zero for
// uncapacitated nodes. This is the ∂A_i/∂f_ik of eq. (11) for
// non-difference links; under sharding it is the external-price term of
// the marginal wave — congestion priced at global, not shard-local,
// usage.
func (x *Extended) PenaltyDeriv(i graph.NodeID, z float64) float64 {
	if int(i) < len(x.External) {
		z += x.External[i]
	}
	return x.ShadowPrice(i, z)
}

// SetExternal installs ext (length ≤ SharedNodes; usually exactly
// SharedNodes) as the external-usage vector the barrier adds to own
// flow. The slice is retained, not copied, so a coordinator can update
// it in place between solve rounds as long as no wave is running; after
// such a rewrite it calls gradient.Engine.ExternalChanged on every
// engine bound to x before that engine's next Step, or the engine keeps
// the cost, feasibility and node prices it took under the old values.
// Nil restores the unsharded behaviour.
func (x *Extended) SetExternal(ext []float64) { x.External = ext }

// LossValue returns Y_(i,k)(z): the utility loss when edge e carries z,
// nonzero only on difference links (eq. 1).
func (x *Extended) LossValue(j int, e graph.EdgeID, z float64) float64 {
	if !x.IsDiffLink(j, e) {
		return 0
	}
	return x.Commodities[j].Loss.Value(z)
}

// LossDeriv returns Y'_(i,k)(z) — eq. (11)'s U'_k(λ_k − f_ik) branch.
func (x *Extended) LossDeriv(j int, e graph.EdgeID, z float64) float64 {
	if !x.IsDiffLink(j, e) {
		return 0
	}
	return x.Commodities[j].Loss.Deriv(z)
}
