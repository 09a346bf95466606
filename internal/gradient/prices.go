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

// evaluate is the one pass over the nodes that judges a forecast usage
// u whose utility loss Y is loss: it returns A = Y + ε·D — the operands
// Usage.TotalCost adds, in its order — and the feasibility
// Usage.Feasible reports, and leaves a.price holding u's node prices,
// as fillNodePrices would. The load z = f_n + External_n is formed once
// per capacitated node for all three. The caller must be done reading
// a.price. The same loop adds the largest price change to the screen's
// drift, rounded up (a NaN price makes the drift NaN, which screens
// nothing).
//
// The barrier is called on its concrete type, utility.Reciprocal, so the
// compiler inlines D and D' into the loop.
func (a *arena) evaluate(u *flow.Usage, loss float64) (cost float64, feasible bool) {
	x := u.R.X
	ext, eps, price := x.External, x.Epsilon, a.price
	penalty, moved := 0.0, 0.0
	feasible = true
	for n, z := range u.FNode[:x.SharedNodes] {
		c, p := x.Capacity[n], 0.0
		if !math.IsInf(c, 1) {
			if n < len(ext) {
				z += ext[n]
			}
			penalty += eps * utility.Reciprocal{}.Value(z, c)
			p = eps * utility.Reciprocal{}.Deriv(z, c)
			if z > c+1e-9 {
				feasible = false
			}
		}
		if d := math.Abs(p - price[n]); !(d <= moved) {
			moved = d
		}
		price[n] = p
	}
	// Scaling by 1 + 2⁻⁵¹ rounds the sum up by at least one ulp.
	a.drift = (a.drift + moved) * (1 + 0x1p-51)
	return loss + penalty, feasible
}
