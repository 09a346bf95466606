package utility

import "math"

// barrierMargin is the fraction of capacity below C at which derivative
// evaluation is clamped: D' is evaluated at min(z, C·(1−barrierMargin)).
const barrierMargin = 1e-6

// Reciprocal is the node barrier every solve runs, the paper's example
// D(z) = 1/(C−z) (§3): a convex, increasing penalty on node resource
// usage z with capacity C, D(z) → ∞ as z → C. The gradient algorithm
// consumes Deriv; Value is used for cost reporting.
//
// Deriv behaves sanely past the barrier: a transient routing overshoot
// can forecast z ≥ C, and the algorithm needs a very large — but finite
// and still increasing — derivative there to push the flow back out
// rather than NaN-poisoning the iteration. See DESIGN.md §6 ("barrier
// derivative clamping").
type Reciprocal struct{}

// Value returns D(z) given capacity c, +Inf for z ≥ c. It subtracts the
// empty-system offset 1/C so that an idle node contributes zero cost,
// which makes reported costs comparable across topologies; derivatives
// are unaffected.
func (Reciprocal) Value(z, c float64) float64 {
	if z >= c {
		return math.Inf(1)
	}
	return 1/(c-z) - 1/c
}

// Deriv returns D'(z) = 1/(C−z)² given capacity c, clamped near the
// barrier.
func (Reciprocal) Deriv(z, c float64) float64 {
	z = clampUsage(z, c)
	d := c - z
	return 1 / (d * d)
}

// clampUsage limits z to just below capacity so barrier derivatives stay
// finite under transient overshoot.
func clampUsage(z, c float64) float64 {
	lim := c * (1 - barrierMargin)
	if z > lim {
		return lim
	}
	return z
}
