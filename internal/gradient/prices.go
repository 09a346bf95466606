package gradient

import (
	"repro/internal/flow"
	"repro/internal/graph"
)

// fillNodePrices sets price[n] = ε·D'_n(f_n + External_n) for every
// extended node of the evaluated usage u: the barrier's shadow price at
// the global operating point (a shard's own flow plus what the other
// shards route through the node), zero at uncapacitated nodes. This is
// the ∂A_i/∂f_e of eq. 11 off the difference links, a property of the
// node alone, so the marginal wave, the stationarity check and the
// bottleneck attribution all read it from one vector instead of
// recomputing it per member edge.
func fillNodePrices(u *flow.Usage, price []float64) {
	x := u.R.X
	for n, f := range u.FNode {
		price[n] = x.PenaltyDeriv(graph.NodeID(n), f)
	}
}

// nodePrices is fillNodePrices into a fresh vector.
func nodePrices(u *flow.Usage) []float64 {
	price := make([]float64, len(u.FNode))
	fillNodePrices(u, price)
	return price
}
