package gradient

import (
	"math"
	"sort"

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
// it (Theorem 2). AttributeAll packages those signals per commodity.

// BindingNode is one capacity-constrained resource carrying commodity-j
// traffic whose congestion price is materially shaping the solution.
type BindingNode struct {
	// Node is the extended-graph node (a Proc or Bandwidth node).
	Node graph.NodeID
	// Utilization is f_i/C_i at the operating point.
	Utilization float64
	// Price is ε·D'_i(f_i): the marginal cost this resource adds per
	// unit of flow through it — the barrier's live shadow price.
	Price float64
}

// Attribution explains one commodity's admission decision.
type Attribution struct {
	Commodity int
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

// attribute explains commodity j at the evaluated operating point u
// against precomputed node prices (fillNodePrices): O(member edges).
func attribute(u *flow.Usage, j int, price []float64) Attribution {
	x := u.R.X
	c := &x.Commodities[j]
	sg := &x.Sub[j]
	m := marginalsAt(u, j, price)
	a := u.AdmittedRate(j)

	at := Attribution{
		Commodity:       j,
		Offered:         c.MaxRate,
		Admitted:        a,
		Utility:         c.Utility.Value(a),
		MarginalUtility: c.Utility.Deriv(a),
		PathCost:        m.LinkD[sg.InputLink],
	}
	at.Gap = at.MarginalUtility - at.PathCost

	// Walk the capacitated member nodes carrying commodity-j flow; a
	// node's commodity-j throughput is Σ_{e∈out(n)} EdgeFlow(j, e).
	// (Ascending local index = ascending global ID; non-member nodes
	// carry no commodity-j flow, so restricting the walk loses nothing.)
	var worst *BindingNode
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
		bn := BindingNode{
			Node:        node,
			Utilization: u.FNode[node] / capacity,
			Price:       price[node],
		}
		if worst == nil || bn.Price > worst.Price {
			w := bn
			worst = &w
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
	if len(at.Binding) == 0 && worst != nil && at.Admitted < at.Offered-1e-6 {
		at.Binding = append(at.Binding, *worst)
	}
	sort.Slice(at.Binding, func(a, b int) bool {
		return at.Binding[a].Price > at.Binding[b].Price
	})
	return at
}

// AttributeAll explains every commodity at the evaluated operating
// point u. Cost: pricing every node once plus one marginal-cost wave per
// commodity.
func AttributeAll(u *flow.Usage) []Attribution {
	out := make([]Attribution, u.R.X.NumCommodities())
	price := nodePrices(u)
	for j := range out {
		out[j] = attribute(u, j, price)
	}
	return out
}
