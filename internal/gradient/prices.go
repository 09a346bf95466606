package gradient

import (
	"math"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/utility"
)

// fillNodePrices sets price[n] = ε·D'_n(f_n + External_n) for every
// extended node of the evaluated usage u: the barrier's shadow price at
// the global operating point (a shard's own flow plus what the other
// shards route through the node), zero at uncapacitated nodes. This is
// the ∂A_i/∂f_e of eq. 11 off the difference links, a property of the
// node alone, so the marginal wave, the stationarity check and the
// bottleneck attribution all read it from one vector instead of
// recomputing it per member edge. It walks the shared node prefix,
// which holds every capacitated node; the dummy nodes past it are never
// written, so price must hold zero there, as a fresh vector does.
func fillNodePrices(u *flow.Usage, price []float64) {
	x := u.R.X
	for n, f := range u.FNode[:x.SharedNodes] {
		price[n] = x.PenaltyDeriv(graph.NodeID(n), f)
	}
}

// nodePrices is fillNodePrices into a fresh vector.
func nodePrices(u *flow.Usage) []float64 {
	price := make([]float64, len(u.FNode))
	fillNodePrices(u, price)
	return price
}

// evaluate is the one pass over the nodes that judges a forecast usage
// u whose utility loss Y is loss: it returns A = Y + ε·D — the operands
// Usage.TotalCost adds, in its order — and the feasibility
// Usage.Feasible reports, and leaves price holding u's node prices, as
// fillNodePrices would. The load z = f_n + External_n is formed once
// per capacitated node for all three. The caller must be done reading
// price.
//
// The barrier is called on its concrete type, utility.Reciprocal, so the
// compiler inlines D and D' into the loop.
func evaluate(u *flow.Usage, loss float64, price []float64) (cost float64, feasible bool) {
	x := u.R.X
	ext, eps := x.External, x.Epsilon
	penalty := 0.0
	feasible = true
	for n, z := range u.FNode[:x.SharedNodes] {
		c := x.Capacity[n]
		if math.IsInf(c, 1) {
			price[n] = 0
			continue
		}
		if n < len(ext) {
			z += ext[n]
		}
		penalty += eps * utility.Reciprocal{}.Value(z, c)
		price[n] = eps * utility.Reciprocal{}.Deriv(z, c)
		if z > c+1e-9 {
			feasible = false
		}
	}
	return loss + penalty, feasible
}
