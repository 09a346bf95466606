package utility

import (
	"math"
	"testing"
	"testing/quick"
)

// numDeriv is a central-difference numerical derivative used to verify
// analytic Deriv implementations.
func numDeriv(f func(float64) float64, x, h float64) float64 {
	return (f(x+h) - f(x-h)) / (2 * h)
}

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestLinear(t *testing.T) {
	u := Linear{Slope: 2.5}
	if got := u.Value(4); got != 10 {
		t.Fatalf("Value(4) = %g, want 10", got)
	}
	if got := u.Deriv(123); got != 2.5 {
		t.Fatalf("Deriv = %g, want 2.5", got)
	}
	if u.Value(0) != 0 {
		t.Fatal("U(0) != 0")
	}
}

func TestLogProperties(t *testing.T) {
	u := Log{Weight: 3, Scale: 2}
	if u.Value(0) != 0 {
		t.Fatalf("U(0) = %g, want 0", u.Value(0))
	}
	if got, want := u.Deriv(0), 1.5; !approxEq(got, want, 1e-12) {
		t.Fatalf("U'(0) = %g, want %g", got, want)
	}
}

func TestSqrtZeroValue(t *testing.T) {
	u := Sqrt{Weight: 2, Shift: 1}
	if u.Value(0) != 0 {
		t.Fatalf("U(0) = %g, want 0", u.Value(0))
	}
}

func TestAlphaFairReducesToLogAtAlphaOne(t *testing.T) {
	af := AlphaFair{Weight: 2, Alpha: 1, Shift: 3}
	lg := Log{Weight: 2, Scale: 3}
	for _, r := range []float64{0, 0.5, 1, 7, 42} {
		if !approxEq(af.Value(r), lg.Value(r), 1e-12) {
			t.Fatalf("alpha=1 Value(%g) = %g, log gives %g", r, af.Value(r), lg.Value(r))
		}
		if !approxEq(af.Deriv(r), lg.Deriv(r), 1e-12) {
			t.Fatalf("alpha=1 Deriv(%g) = %g, log gives %g", r, af.Deriv(r), lg.Deriv(r))
		}
	}
}

func TestCappedLinear(t *testing.T) {
	u := CappedLinear{Slope: 2, Cap: 5}
	if got := u.Value(3); got != 6 {
		t.Fatalf("Value(3) = %g, want 6", got)
	}
	if got := u.Value(9); got != 10 {
		t.Fatalf("Value(9) = %g, want 10 (capped)", got)
	}
	if got := u.Deriv(3); got != 2 {
		t.Fatalf("Deriv(3) = %g, want 2", got)
	}
	if got := u.Deriv(7); got != 0 {
		t.Fatalf("Deriv(7) = %g, want 0", got)
	}
}

// All families must have Deriv matching a numerical derivative of Value.
func TestDerivMatchesValue(t *testing.T) {
	funcs := []Function{
		Linear{Slope: 1.7},
		Log{Weight: 4, Scale: 3},
		Sqrt{Weight: 2, Shift: 0.5},
		AlphaFair{Weight: 1.5, Alpha: 2, Shift: 1},
		AlphaFair{Weight: 1.5, Alpha: 0.5, Shift: 1},
	}
	for _, u := range funcs {
		for _, r := range []float64{0.1, 1, 5, 20} {
			want := numDeriv(u.Value, r, 1e-6)
			got := u.Deriv(r)
			if !approxEq(got, want, 1e-4) {
				t.Errorf("%s: Deriv(%g) = %g, numeric %g", u.Name(), r, got, want)
			}
		}
	}
}

func TestValidateAcceptsConcave(t *testing.T) {
	for _, u := range []Function{
		Linear{Slope: 1},
		Log{Weight: 1, Scale: 1},
		Sqrt{Weight: 1, Shift: 0.1},
		CappedLinear{Slope: 1, Cap: 10},
	} {
		if err := Validate(u, 100); err != nil {
			t.Errorf("%s: Validate = %v, want nil", u.Name(), err)
		}
	}
}

type convexUtility struct{}

func (convexUtility) Value(r float64) float64 { return r * r }
func (convexUtility) Deriv(r float64) float64 { return 2 * r }
func (convexUtility) Name() string            { return "convex" }

type decreasingUtility struct{}

func (decreasingUtility) Value(r float64) float64 { return -r }
func (decreasingUtility) Deriv(float64) float64   { return -1 }
func (decreasingUtility) Name() string            { return "decreasing" }

func TestValidateRejectsBadUtilities(t *testing.T) {
	if err := Validate(convexUtility{}, 10); err == nil {
		t.Error("convex utility passed validation")
	}
	if err := Validate(decreasingUtility{}, 10); err == nil {
		t.Error("decreasing utility passed validation")
	}
}

func TestLossIdentity(t *testing.T) {
	// Y(λ−a) = U(λ) − U(a): rejecting λ−a loses exactly the utility gap.
	u := Log{Weight: 2, Scale: 1}
	y := Loss{U: u, Lambda: 10}
	for _, a := range []float64{0, 1, 5, 10} {
		want := u.Value(10) - u.Value(a)
		if got := y.Value(10 - a); !approxEq(got, want, 1e-12) {
			t.Fatalf("Y(λ−%g) = %g, want %g", a, got, want)
		}
	}
}

func TestLossDerivIsMarginalUtility(t *testing.T) {
	// Y'(λ−a) = U'(a): the marginal cost of one more rejected unit is
	// the marginal utility of the admitted rate. This is the identity
	// eq. (11) relies on.
	u := Sqrt{Weight: 3, Shift: 0.2}
	y := Loss{U: u, Lambda: 8}
	for _, a := range []float64{0.5, 2, 7.5} {
		if got, want := y.Deriv(8-a), u.Deriv(a); !approxEq(got, want, 1e-12) {
			t.Fatalf("Y'(λ−%g) = %g, want U'(%g) = %g", a, got, a, want)
		}
	}
}

func TestLossClampsDomain(t *testing.T) {
	y := Loss{U: Linear{Slope: 1}, Lambda: 5}
	if got := y.Value(-3); got != 0 {
		t.Fatalf("Y(-3) = %g, want 0", got)
	}
	if got := y.Value(100); got != y.Value(5) {
		t.Fatalf("Y(100) = %g, want Y(5) = %g", got, y.Value(5))
	}
}

func TestQuickLossConvexIncreasing(t *testing.T) {
	// For any concave U and 0 ≤ x1 < x2 ≤ λ: Y increasing and Y'
	// non-decreasing (convexity).
	f := func(w, s, x1, x2 float64) bool {
		w = 0.1 + math.Abs(math.Mod(w, 10))
		s = 0.1 + math.Abs(math.Mod(s, 10))
		const lambda = 10.0
		x1 = math.Abs(math.Mod(x1, lambda))
		x2 = math.Abs(math.Mod(x2, lambda))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		y := Loss{U: Log{Weight: w, Scale: s}, Lambda: lambda}
		if y.Value(x2) < y.Value(x1)-1e-12 {
			return false
		}
		return y.Deriv(x2) >= y.Deriv(x1)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReciprocalPenalty(t *testing.T) {
	var p Reciprocal
	if got := p.Value(0, 10); got != 0 {
		t.Fatalf("D(0) = %g, want 0 (offset-normalized)", got)
	}
	if !math.IsInf(p.Value(10, 10), 1) {
		t.Fatal("D(C) should be +Inf")
	}
	if !math.IsInf(p.Value(15, 10), 1) {
		t.Fatal("D(z>C) should be +Inf")
	}
	// D'(z) = 1/(C−z)^2
	if got, want := p.Deriv(6, 10), 1.0/16; !approxEq(got, want, 1e-12) {
		t.Fatalf("D'(6) = %g, want %g", got, want)
	}
}

func TestPenaltyDerivFiniteAtAndPastBarrier(t *testing.T) {
	var p Reciprocal
	for _, z := range []float64{9.999999, 10, 11, 1e6} {
		d := p.Deriv(z, 10)
		if math.IsInf(d, 0) || math.IsNaN(d) {
			t.Errorf("D'(%g) = %g, want finite", z, d)
		}
		if d <= 0 {
			t.Errorf("D'(%g) = %g, want > 0", z, d)
		}
	}
}

func TestPenaltyDerivMonotone(t *testing.T) {
	var p Reciprocal
	prev := 0.0
	for z := 0.0; z < 9.9; z += 0.1 {
		d := p.Deriv(z, 10)
		if d < prev {
			t.Fatalf("D' decreased at z=%g", z)
		}
		prev = d
	}
}

func TestPenaltyDerivMatchesValue(t *testing.T) {
	var p Reciprocal
	for _, z := range []float64{1, 4, 8, 9.5} {
		want := numDeriv(func(x float64) float64 { return p.Value(x, 10) }, z, 1e-7)
		got := p.Deriv(z, 10)
		if !approxEq(got, want, 1e-3) {
			t.Errorf("D'(%g) = %g, numeric %g", z, got, want)
		}
	}
}
