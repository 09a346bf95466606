package gradient

import (
	"math"
	"slices"

	"repro/internal/flow"
	"repro/internal/graph"
)

// Bottleneck attribution: the operator-facing answer to "why is
// commodity j admitted at rate a_j, and which resource is holding it
// back?". The paper's marginal-cost machinery already contains the
// answer — ρ_i(j) prices injection at every node (eq. 9), the barrier
// derivative ε·D'_i(f_i) is each resource's local congestion (shadow)
// price, and at an optimal operating point the marginal utility of one
// more admitted unit, U'_j(a_j), equals the marginal cost of carrying
// it (Theorem 2). An Attributor packages those signals per commodity.

// BindingNode is one capacity-constrained resource carrying commodity-j
// traffic whose congestion price is materially shaping the solution.
type BindingNode struct {
	// Node is the extended-graph node (a Proc or Bandwidth node).
	Node graph.NodeID
	// Utilization is f_i/C_i at the global operating point: f_i counts
	// the flow other shards route through the node (Engine.SetExternal)
	// too.
	Utilization float64
	// Price is ε·D'_i(f_i): the marginal cost this resource adds per
	// unit of flow through it — the barrier's live shadow price.
	Price float64
}

// Attribution explains one commodity's admission decision.
type Attribution struct {
	// Offered is λ_j; Admitted is a_j; Utility is U_j(a_j).
	Offered  float64
	Admitted float64
	Utility  float64
	// MarginalUtility is U'_j(a_j): the utility value of admitting one
	// more unit.
	MarginalUtility float64
	// PathCost is the marginal cost of pushing one more unit into the
	// network via the input link: d_(s̄_j,s_j) = ρ_{s_j}(j) under unit
	// input shrinkage. At an interior optimum with partial rejection it
	// equals MarginalUtility.
	PathCost float64
	// Gap is MarginalUtility − PathCost. Near zero when admission is
	// capacity-priced; positive when the commodity is fully admitted
	// with headroom (utility still exceeds cost, nothing to reject);
	// negative transiently before convergence.
	Gap float64
	// Binding lists the commodity's saturated resources, highest shadow
	// price first. Empty when the commodity's paths have headroom
	// everywhere and its admission is limited only by its offered rate.
	Binding []BindingNode
}

// Thresholds classifying a resource as binding: utilization at or above
// BindingUtilization, or — when congestion pricing is actually shaping
// admission, i.e. the path cost is a material fraction of the marginal
// utility — a shadow price carrying at least BindingPriceShare of the
// commodity's total path cost. The price test catches barrier operating
// points that hold utilization below 1 while the node still dominates
// the path price; the materiality guard keeps the noise-level prices of
// an uncongested network from reporting phantom bottlenecks.
const (
	BindingUtilization = 0.9
	BindingPriceShare  = 0.10
	minFlow            = 1e-9
)

// Attributor explains the commodities of one evaluated operating point
// one at a time: Attribute runs one commodity's marginal-cost wave
// through the wave scratch of an arena whose node pass (evaluate) has
// priced that point, and writes into the caller's Attribution, so
// explaining J commodities allocates nothing per commodity. An engine's
// Attributor reads the engine's own arena; NewAttributor prices a bare
// usage in a fresh one.
type Attributor struct {
	u *flow.Usage
	a *arena
}

// NewAttributor prices the evaluated usage u at its own flow, no other
// shard's flow added, in a fresh arena: for one-off explanations of a
// usage that no engine holds (Engine.Attributor reads an engine's).
func NewAttributor(u *flow.Usage) Attributor {
	a := newArena(u.R.X, false)
	a.evaluate(u, 0)
	return Attributor{u: u, a: a}
}

// Attribute explains commodity j at the attributor's operating point
// into at: O(member edges). at.Binding is overwritten in place, reusing
// its backing array, so a caller that keeps the bindings copies them
// out before the next call.
func (r Attributor) Attribute(j int, at *Attribution) {
	u, a := r.u, r.a
	x := u.R.X
	c := &x.Commodities[j]
	sg := &x.Sub[j]
	rho, linkD := a.scratch.rho[:sg.NumNodes()], a.scratch.linkD[:sg.NumEdges()]
	if cap(at.Binding) < len(rho) {
		// A binding is a member node: one array of the largest
		// commodity's node count holds any commodity's list.
		at.Binding = make([]BindingNode, 0, len(a.scratch.rho))
	}
	sweep(u, j, a.price, rho, linkD, nil, 0)
	adm := u.AdmittedRate(j)

	*at = Attribution{
		Offered:         c.MaxRate,
		Admitted:        adm,
		Utility:         c.Utility.Value(adm),
		MarginalUtility: c.Utility.Deriv(adm),
		PathCost:        linkD[sg.InputLink],
		Binding:         at.Binding[:0],
	}
	at.Gap = at.MarginalUtility - at.PathCost

	// Walk the capacitated member nodes carrying commodity-j flow; a
	// node's commodity-j throughput is Σ_{e∈out(n)} EdgeFlow(j, e).
	// (Ascending local index = ascending global ID; non-member nodes
	// carry no commodity-j flow, so restricting the walk loses nothing.)
	// A node's load is its global one, own flow plus what other shards
	// route through it, the load its price is taken at.
	var worst BindingNode
	found := false
	for ln := int32(0); ln < int32(sg.NumNodes()); ln++ {
		node := sg.Nodes[ln]
		capacity := x.Capacity[node]
		if math.IsInf(capacity, 1) || capacity <= 0 {
			continue
		}
		used := 0.0
		for _, le := range sg.Out(ln) {
			used += u.EdgeFlow(j, le)
		}
		if used <= minFlow {
			continue
		}
		load := u.FNode[node]
		if int(node) < len(a.ext) {
			load += a.ext[node]
		}
		bn := BindingNode{
			Node:        node,
			Utilization: load / capacity,
			Price:       a.price[node],
		}
		if !found || bn.Price > worst.Price {
			worst, found = bn, true
		}
		priced := at.PathCost >= BindingPriceShare*at.MarginalUtility &&
			at.PathCost > 0 && bn.Price >= BindingPriceShare*at.PathCost
		if bn.Utilization >= BindingUtilization || priced {
			at.Binding = append(at.Binding, bn)
		}
	}
	// A commodity that is being partially rejected is by definition
	// capacity-limited somewhere: if the thresholds caught nothing (flat
	// prices spread along a long path), blame the priciest used node so
	// the operator always gets a bottleneck to look at.
	if len(at.Binding) == 0 && found && at.Admitted < at.Offered-1e-6 {
		at.Binding = append(at.Binding, worst)
	}
	slices.SortFunc(at.Binding, func(p, q BindingNode) int {
		switch {
		case p.Price > q.Price:
			return -1
		case p.Price < q.Price:
			return 1
		}
		return 0
	})
}
