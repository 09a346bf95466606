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
//     barrier penalties ε·D_i (utility.Reciprocal).
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

// Extended is the transformed problem instance. Its graph is computed,
// not stored: nodes 0..N-1 are the original nodes, node N+e is link e's
// bandwidth node and node N+M+j commodity j's dummy; edges 2e and 2e+1
// are link e's halves, edges 2M+2j and 2M+2j+1 commodity j's input and
// difference links.
type Extended struct {
	// Capacity per node; +Inf for dummy nodes and sinks.
	Capacity []float64
	// Epsilon scales the barrier D = utility.Reciprocal (cost = ε·D).
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
	// it through graph.Local(Sub[j].Edges, e).
	Sub []Subgraph

	// net, names and kinds are the network topology Build read, shared
	// with the problem and read only below its N = len(names) nodes and
	// M = SharedNodes−N links: a network only grows, by appending.
	net   *graph.Graph
	names []string
	kinds []stream.NodeKind

	// src[j] is the stream commodity Commodities[j] was built from (or
	// last reparameterized to), and capacity and bandwidth the network
	// vectors: what Changes compares a later problem against, by
	// identity first.
	src                 []*stream.Commodity
	capacity, bandwidth []float64
}

// Options configures the transformation.
type Options struct {
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
	if opts.Epsilon <= 0 {
		opts.Epsilon = 0.2
	}

	og := p.Net.G
	n, m := og.NumNodes(), og.NumEdges()
	order := incl
	if order == nil {
		order = make([]int, len(p.Commodities))
		for i := range order {
			order[i] = i
		}
	}
	j := len(order)
	x := &Extended{
		Capacity:    make([]float64, n+m+j),
		Epsilon:     opts.Epsilon,
		SharedNodes: n + m,
		Commodities: make([]Commodity, j),
		net:         og,
		names:       p.Net.Names[:n:n],
		kinds:       p.Net.Kinds[:n:n],
		src:         make([]*stream.Commodity, j),
	}
	for i := range x.Capacity {
		x.Capacity[i] = math.Inf(1) // what sinks and dummy nodes keep
	}
	x.setCapacities(p.Net)

	// Dummy nodes and links: one super-source per included commodity.
	for ci, gi := range order {
		c := p.Commodities[gi]
		d := graph.NodeID(n + m + ci)
		x.src[ci] = c
		x.Commodities[ci] = Commodity{
			Name:      c.Name,
			Dummy:     d,
			Source:    c.Source,
			Sink:      c.SinkID,
			MaxRate:   c.MaxRate,
			Utility:   c.Utility,
			Loss:      utility.Loss{U: c.Utility, Lambda: c.MaxRate},
			InputLink: graph.EdgeID(2*m + 2*ci),
			DiffLink:  graph.EdgeID(2*m + 2*ci + 1),
		}
	}

	// Per-commodity sparse subgraphs: parameters, trim, topo order, and
	// CSR adjacency over only the member edges. A commodity may use
	// extended edge (i, n_ik) with the original β and c, and (n_ik, k)
	// with β=1, c=1 (one bandwidth unit transfers one flow unit). Dummy
	// links use β=1, c=1 so the difference-link usage equals the
	// rejected rate.
	x.Sub = make([]Subgraph, j)
	b := newBuilder(x, p.Commodities, order)
	for ci, gi := range order {
		if err := b.build(&x.Commodities[ci], p.Commodities[gi]); err != nil {
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
	g, n := p.Net.G, len(x.names)
	if len(incl) != len(x.src) || g.NumNodes() != n || g.NumEdges() != x.SharedNodes-n ||
		!x.sameNetwork(g, p.Net.Names, p.Net.Kinds) {
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

// sameNetwork reports whether g, names and kinds start with the N nodes
// and M links x was laid out from; problem versions share the very ones.
func (x *Extended) sameNetwork(g *graph.Graph, names []string, kinds []stream.NodeKind) bool {
	if g == x.net {
		return true
	}
	for i := range x.names {
		if names[i] != x.names[i] || kinds[i] != x.kinds[i] {
			return false
		}
	}
	for e := range graph.EdgeID(x.SharedNodes - len(x.names)) {
		if g.Edge(e) != x.net.Edge(e) {
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
	x.setCapacities(p.Net)
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

// setCapacities installs net's server capacities and link bandwidths on
// the original and bandwidth nodes; sinks keep theirs.
func (x *Extended) setCapacities(net *stream.Network) {
	for i, kind := range x.kinds {
		if kind != stream.Sink {
			x.Capacity[i] = net.Capacity[i]
		}
	}
	copy(x.Capacity[len(x.kinds):x.SharedNodes], net.Bandwidth)
	x.capacity, x.bandwidth = net.Capacity, net.Bandwidth
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
	if x.SharedNodes != prev.SharedNodes || len(x.names) != len(prev.names) || !x.sameNetwork(prev.net, prev.names, prev.kinds) {
		return out
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

// NumNodes reports the extended node count N+M+J.
func (x *Extended) NumNodes() int { return x.SharedNodes + len(x.Commodities) }

// NumEdges reports the extended edge count 2M+2J.
func (x *Extended) NumEdges() int { return 2 * (x.NumNodes() - len(x.names)) }

// Edge returns the endpoints of extended edge e.
func (x *Extended) Edge(e graph.EdgeID) graph.Edge {
	if m2 := 2 * (x.SharedNodes - len(x.names)); int(e) >= m2 {
		c := &x.Commodities[(int(e)-m2)/2]
		if e%2 == 0 {
			return graph.Edge{From: c.Dummy, To: c.Source}
		}
		return graph.Edge{From: c.Dummy, To: c.Sink}
	}
	link, bw := x.net.Edge(e/2), graph.NodeID(len(x.names))+graph.NodeID(e/2)
	if e%2 == 0 {
		return graph.Edge{From: link.From, To: bw}
	}
	return graph.Edge{From: bw, To: link.To}
}

// Link returns the link bandwidth node n stands for.
func (x *Extended) Link(n graph.NodeID) graph.EdgeID { return graph.EdgeID(int(n) - len(x.names)) }

// Kind classifies extended node n.
func (x *Extended) Kind(n graph.NodeID) NodeKind {
	switch {
	case int(n) >= x.SharedNodes:
		return Dummy
	case int(n) >= len(x.kinds):
		return Bandwidth
	case x.kinds[n] == stream.Sink:
		return SinkNode
	}
	return Proc
}

// Name returns extended node n's name: an original node's own, bw:i>k
// for the bandwidth node of link (i,k), dummy:S for commodity S's dummy.
func (x *Extended) Name(n graph.NodeID) string {
	switch {
	case int(n) >= x.SharedNodes:
		return "dummy:" + x.Commodities[int(n)-x.SharedNodes].Name
	case int(n) >= len(x.names):
		link := x.net.Edge(x.Link(n))
		return "bw:" + x.names[link.From] + ">" + x.names[link.To]
	}
	return x.names[n]
}

// OutDegree reports how many extended edges leave n: for an original
// node, its links but those added after Build (they have larger IDs).
func (x *Extended) OutDegree(n graph.NodeID) int {
	switch {
	case int(n) >= x.SharedNodes:
		return 2
	case int(n) >= len(x.names):
		return 1
	}
	d, _ := slices.BinarySearch(x.net.Out(n), graph.EdgeID(x.SharedNodes-len(x.names)))
	return d
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
	return x.Epsilon * utility.Reciprocal{}.Value(z, c)
}

// ShadowPrice returns ε·D'_i(z) for node i at a usage z that already
// is the global total — no External term is added — and zero for
// uncapacitated nodes: the barrier's congestion price.
func (x *Extended) ShadowPrice(i graph.NodeID, z float64) float64 {
	c := x.Capacity[i]
	if math.IsInf(c, 1) {
		return 0
	}
	return x.Epsilon * utility.Reciprocal{}.Deriv(z, c)
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
	if x.Commodities[j].DiffLink != e {
		return 0
	}
	return x.Commodities[j].Loss.Value(z)
}
