// Package utility provides the concave increasing utility functions the
// paper attaches to each commodity (§2), the utility-loss cost Y placed
// on dummy difference links (§3, eq. 1), and the convex barrier penalty
// functions D used to absorb capacity constraints into the objective.
package utility

import (
	"errors"
	"fmt"
	"math"
)

// Function is a concave, increasing utility of an admitted data rate.
// Value and Deriv must be defined for all rates in [0, λ]; Deriv must be
// non-increasing (concavity) and non-negative (monotonicity).
type Function interface {
	// Value returns U(rate).
	Value(rate float64) float64
	// Deriv returns U'(rate).
	Deriv(rate float64) float64
	// Name identifies the family for reports and serialization.
	Name() string
}

// Linear is U(a) = Slope·a. With Slope = 1 the total utility is total
// throughput — exactly the objective of the paper's §6 experiment.
type Linear struct {
	Slope float64
}

// Value implements Function.
func (u Linear) Value(rate float64) float64 { return u.Slope * rate }

// Deriv implements Function.
func (u Linear) Deriv(float64) float64 { return u.Slope }

// Name implements Function.
func (u Linear) Name() string { return "linear" }

// Log is U(a) = Weight·log(1 + a/Scale): proportional fairness shifted
// so that U(0)=0 and U'(0) is finite (Weight/Scale).
type Log struct {
	Weight float64
	Scale  float64
}

// Value implements Function.
func (u Log) Value(rate float64) float64 {
	return u.Weight * math.Log1p(rate/u.Scale)
}

// Deriv implements Function.
func (u Log) Deriv(rate float64) float64 {
	return u.Weight / (u.Scale + rate)
}

// Name implements Function.
func (u Log) Name() string { return "log" }

// Sqrt is U(a) = Weight·sqrt(a+Shift) − Weight·sqrt(Shift), an α-fair
// utility with α = 1/2, shifted so U(0)=0 and U'(0) finite when
// Shift > 0.
type Sqrt struct {
	Weight float64
	Shift  float64
}

// Value implements Function.
func (u Sqrt) Value(rate float64) float64 {
	return u.Weight * (math.Sqrt(rate+u.Shift) - math.Sqrt(u.Shift))
}

// Deriv implements Function.
func (u Sqrt) Deriv(rate float64) float64 {
	return u.Weight / (2 * math.Sqrt(rate+u.Shift))
}

// Name implements Function.
func (u Sqrt) Name() string { return "sqrt" }

// AlphaFair is the α-fair family U(a) = Weight·((a+Shift)^(1−α) −
// Shift^(1−α))/(1−α) for α ≠ 1; α = 1 is Log. α = 0 is Linear,
// α → ∞ approaches max-min fairness.
type AlphaFair struct {
	Weight float64
	Alpha  float64
	Shift  float64
}

// Value implements Function.
func (u AlphaFair) Value(rate float64) float64 {
	if u.Alpha == 1 {
		return u.Weight * math.Log1p(rate/u.Shift)
	}
	p := 1 - u.Alpha
	return u.Weight * (math.Pow(rate+u.Shift, p) - math.Pow(u.Shift, p)) / p
}

// Deriv implements Function.
func (u AlphaFair) Deriv(rate float64) float64 {
	return u.Weight * math.Pow(rate+u.Shift, -u.Alpha)
}

// Name implements Function.
func (u AlphaFair) Name() string { return "alphafair" }

// CappedLinear is U(a) = Slope·min(a, Cap): linear value up to a demand
// cap, flat after. Concave and increasing (weakly); its derivative is
// discontinuous at Cap, which exercises the optimizer's handling of
// kinked utilities.
type CappedLinear struct {
	Slope float64
	Cap   float64
}

// Value implements Function.
func (u CappedLinear) Value(rate float64) float64 {
	return u.Slope * math.Min(rate, u.Cap)
}

// Deriv implements Function.
func (u CappedLinear) Deriv(rate float64) float64 {
	if rate < u.Cap {
		return u.Slope
	}
	return 0
}

// Name implements Function.
func (u CappedLinear) Name() string { return "cappedlinear" }

// Loss is the utility-loss cost the paper places on the dummy
// difference link (eq. 1): Y(x) = U(λ) − U(λ−x) for rejected rate x.
// It is convex and increasing because U is concave and increasing.
type Loss struct {
	U      Function
	Lambda float64
}

// Value returns Y(x) = U(λ) − U(λ−x). x is clamped to [0, λ].
func (y Loss) Value(x float64) float64 {
	x = clamp(x, 0, y.Lambda)
	return y.U.Value(y.Lambda) - y.U.Value(y.Lambda-x)
}

// LinearValue is Value for a loss whose U is the Linear l: the same
// operations in the same order, with l's two calls inlined instead of
// made through the interface. The §5 engine's wave calls it once per
// commodity per iteration.
func (y Loss) LinearValue(l Linear, x float64) float64 {
	x = clamp(x, 0, y.Lambda)
	return l.Value(y.Lambda) - l.Value(y.Lambda-x)
}

// Deriv returns Y'(x) = U'(λ−x); at x = λ−a this equals U'(a), the
// marginal utility of admission the gradient algorithm balances against
// the marginal network cost.
func (y Loss) Deriv(x float64) float64 {
	x = clamp(x, 0, y.Lambda)
	return y.U.Deriv(y.Lambda - x)
}

// ErrNotConcave reports a utility whose sampled derivative increases.
var ErrNotConcave = errors.New("utility: derivative increases (not concave)")

// ErrNotIncreasing reports a utility with a negative sampled derivative.
var ErrNotIncreasing = errors.New("utility: negative derivative (not increasing)")

// Validate samples U on [0, hi] and checks monotonicity and concavity
// numerically. Intended for configuration-time validation of
// user-supplied utilities.
func Validate(u Function, hi float64) error {
	const samples = 64
	prev := math.Inf(1)
	for i := 0; i <= samples; i++ {
		r := hi * float64(i) / samples
		d := u.Deriv(r)
		if d < 0 {
			return fmt.Errorf("%w: U'(%g) = %g", ErrNotIncreasing, r, d)
		}
		if d > prev+1e-9 {
			return fmt.Errorf("%w: U'(%g) = %g > %g", ErrNotConcave, r, d, prev)
		}
		prev = d
	}
	return nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
