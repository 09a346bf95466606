package gradient

import (
	"math"
	"math/bits"

	"repro/internal/flow"
	"repro/internal/utility"
)

// evaluate is the one pass over the nodes that judges a forecast usage
// u whose utility loss Y is loss: it returns A = Y + ε·D — the operands
// Usage.TotalCost adds, in its order — and the feasibility
// Usage.Feasible reports, and leaves a.price holding u's node prices:
// price[n] = ε·D'_n(f_n + ext_n), the barrier's shadow price at the
// global operating point (the double transform.Extended.ShadowPrice
// returns at that load). That is the ∂A_i/∂f_e of eq. 11 off the
// difference links, a property of the node alone, so the marginal wave,
// the stationarity check and the bottleneck attribution all read it
// from this one vector. It visits only the capacitated shared nodes
// (a.capped), in ascending order; every other node's price is 0 for
// good (indexCapped). The load z = f_n + ext_n (a.ext) is formed once
// per node for all three. The caller must be done reading a.price. The
// same loop adds the largest price change to the screen's drift Π and
// the largest price fall to Π⁻, each rounded up (a NaN price makes both
// NaN, which screens nothing).
//
// The barrier is called on its concrete type, utility.Reciprocal, so the
// compiler inlines D and D' into the loop.
func (a *arena) evaluate(u *flow.Usage, loss float64) (cost float64, feasible bool) {
	x := u.R.X
	ext, eps, price := a.ext, x.Epsilon, a.price
	penalty, moved, fell := 0.0, 0.0, 0.0
	feasible = true
	for w, word := range a.capped {
		for ; word != 0; word &= word - 1 {
			n := w*64 + bits.TrailingZeros64(word)
			z, c := u.FNode[n], x.Capacity[n]
			if n < len(ext) {
				z += ext[n]
			}
			penalty += eps * utility.Reciprocal{}.Value(z, c)
			p := eps * utility.Reciprocal{}.Deriv(z, c)
			if z > c+1e-9 {
				feasible = false
			}
			d := p - price[n]
			if !(math.Abs(d) <= moved) {
				moved = math.Abs(d)
			}
			if !(-d <= fell) {
				fell = -d
			}
			price[n] = p
		}
	}
	// Scaling by 1 + 2⁻⁵¹ rounds each sum up by at least one ulp.
	a.drift = (a.drift + moved) * (1 + 0x1p-51)
	a.fall = (a.fall + fell) * (1 + 0x1p-51)
	return loss + penalty, feasible
}

// indexCapped marks x's capacitated shared nodes in a.capped and prices
// every other node at 0, as evaluate would.
func (a *arena) indexCapped() {
	x := a.x
	clear(a.capped)
	for n, c := range x.Capacity[:x.SharedNodes] {
		if math.IsInf(c, 1) {
			a.price[n] = 0
		} else {
			a.capped[n/64] |= 1 << (n % 64)
		}
	}
}
