package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func addC(t *testing.T, p *Problem, coeffs map[int]float64, sense Sense, rhs float64) {
	t.Helper()
	if err := p.AddConstraint(coeffs, sense, rhs); err != nil {
		t.Fatal(err)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

func TestSimpleLE(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6 -> x=4, y=0, obj 12.
	p := NewProblem(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	addC(t, p, map[int]float64{0: 1, 1: 1}, LE, 4)
	addC(t, p, map[int]float64{0: 1, 1: 3}, LE, 6)
	s := mustSolve(t, p)
	if !approx(s.Objective, 12) {
		t.Fatalf("obj = %g, want 12", s.Objective)
	}
	if !approx(s.X[0], 4) || !approx(s.X[1], 0) {
		t.Fatalf("x = %v, want [4 0]", s.X)
	}
}

func TestInteriorOptimum(t *testing.T) {
	// max x + y s.t. 2x + y ≤ 4, x + 2y ≤ 4 -> x=y=4/3, obj 8/3.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	addC(t, p, map[int]float64{0: 2, 1: 1}, LE, 4)
	addC(t, p, map[int]float64{0: 1, 1: 2}, LE, 4)
	s := mustSolve(t, p)
	if !approx(s.Objective, 8.0/3) {
		t.Fatalf("obj = %g, want 8/3", s.Objective)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// max 2x + y s.t. x + y = 3, x ≤ 2 -> x=2, y=1, obj 5.
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 1)
	addC(t, p, map[int]float64{0: 1, 1: 1}, EQ, 3)
	addC(t, p, map[int]float64{0: 1}, LE, 2)
	s := mustSolve(t, p)
	if !approx(s.Objective, 5) || !approx(s.X[0], 2) || !approx(s.X[1], 1) {
		t.Fatalf("got obj=%g x=%v, want 5 [2 1]", s.Objective, s.X)
	}
}

func TestGEConstraints(t *testing.T) {
	// max −x (i.e. minimize x) s.t. x ≥ 3 -> x=3.
	p := NewProblem(1)
	p.SetObjective(0, -1)
	addC(t, p, map[int]float64{0: 1}, GE, 3)
	s := mustSolve(t, p)
	if !approx(s.X[0], 3) {
		t.Fatalf("x = %g, want 3", s.X[0])
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// −x ≤ −2 is x ≥ 2; max −x gives x=2.
	p := NewProblem(1)
	p.SetObjective(0, -1)
	addC(t, p, map[int]float64{0: -1}, LE, -2)
	s := mustSolve(t, p)
	if !approx(s.X[0], 2) {
		t.Fatalf("x = %g, want 2", s.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	addC(t, p, map[int]float64{0: 1}, LE, 1)
	addC(t, p, map[int]float64{0: 1}, GE, 2)
	if _, err := Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 1)
	addC(t, p, map[int]float64{1: 1}, LE, 1)
	if _, err := Solve(p); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Classic degenerate vertex: redundant constraints meeting at the
	// optimum. Must terminate (anti-cycling) and find obj = 1.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	addC(t, p, map[int]float64{0: 1, 1: 1}, LE, 1)
	addC(t, p, map[int]float64{0: 1, 1: 2}, LE, 1)
	addC(t, p, map[int]float64{0: 1}, LE, 1)
	s := mustSolve(t, p)
	if !approx(s.Objective, 1) {
		t.Fatalf("obj = %g, want 1", s.Objective)
	}
}

func TestBealeCycle(t *testing.T) {
	// Beale's classic cycling example for Dantzig's rule; the Bland
	// fallback must terminate it. max 0.75x1 − 150x2 + 0.02x3 − 6x4
	// s.t. 0.25x1 − 60x2 − 0.04x3 + 9x4 ≤ 0,
	//      0.5x1 − 90x2 − 0.02x3 + 3x4 ≤ 0, x3 ≤ 1. Optimum 0.05.
	p := NewProblem(4)
	p.SetObjective(0, 0.75)
	p.SetObjective(1, -150)
	p.SetObjective(2, 0.02)
	p.SetObjective(3, -6)
	addC(t, p, map[int]float64{0: 0.25, 1: -60, 2: -0.04, 3: 9}, LE, 0)
	addC(t, p, map[int]float64{0: 0.5, 1: -90, 2: -0.02, 3: 3}, LE, 0)
	addC(t, p, map[int]float64{2: 1}, LE, 1)
	s := mustSolve(t, p)
	if !approx(s.Objective, 0.05) {
		t.Fatalf("obj = %g, want 0.05", s.Objective)
	}
}

func TestZeroObjective(t *testing.T) {
	p := NewProblem(1)
	addC(t, p, map[int]float64{0: 1}, LE, 5)
	s := mustSolve(t, p)
	if !approx(s.Objective, 0) {
		t.Fatalf("obj = %g, want 0", s.Objective)
	}
}

func TestRejectsBadIndices(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjective(5, 1); err == nil {
		t.Fatal("bad objective index accepted")
	}
	if err := p.AddConstraint(map[int]float64{7: 1}, LE, 1); err == nil {
		t.Fatal("bad constraint index accepted")
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 supplies (10, 20), 2 demands (15, 15); minimize cost
	// c = [[4,6],[2,3]] -> total 10·4 + 5·2 + 15·3 = 95.
	// Variables x_sd indexed s*2+d; maximize −cost.
	p := NewProblem(4)
	cost := []float64{4, 6, 2, 3}
	for v, c := range cost {
		p.SetObjective(v, -c)
	}
	addC(t, p, map[int]float64{0: 1, 1: 1}, LE, 10)
	addC(t, p, map[int]float64{2: 1, 3: 1}, LE, 20)
	addC(t, p, map[int]float64{0: 1, 2: 1}, EQ, 15)
	addC(t, p, map[int]float64{1: 1, 3: 1}, EQ, 15)
	s := mustSolve(t, p)
	if !approx(-s.Objective, 95) {
		t.Fatalf("cost = %g, want 95", -s.Objective)
	}
}

// TestQuickRandomLPsSatisfyKKTBasics checks on random feasible-by-
// construction LPs that the returned point is feasible and no simple
// coordinate improvement exists (local optimality along axes implied
// by simplex optimality).
func TestQuickRandomLPsSatisfyConstraints(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m := 1 + r.Intn(6)
		p := NewProblem(n)
		for v := 0; v < n; v++ {
			p.SetObjective(v, r.Float64()*4-1)
		}
		for i := 0; i < m; i++ {
			coeffs := make(map[int]float64, n)
			for v := 0; v < n; v++ {
				coeffs[v] = r.Float64() // non-negative rows
			}
			// Positive rhs keeps origin feasible; objective may still
			// be unbounded if some column has all-zero coefficients,
			// which the non-negative row construction makes unlikely
			// but possible; accept Unbounded in that case.
			p.AddConstraint(coeffs, LE, 1+r.Float64()*10)
		}
		s, err := Solve(p)
		if err != nil {
			return errors.Is(err, ErrUnbounded)
		}
		// Feasibility check.
		for _, c := range p.constraints {
			lhs := 0.0
			for v, a := range c.coeffs {
				lhs += a * s.X[v]
			}
			if lhs > c.rhs+1e-6 {
				return false
			}
		}
		for _, xv := range s.X {
			if xv < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDualityGapZero verifies strong duality on random bounded
// LPs: solve the primal and the explicitly constructed dual; their
// optima must match.
func TestQuickDualityGapZero(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		m := 1 + r.Intn(4)
		// Primal: max c·x s.t. Ax ≤ b, x ≥ 0, with A > 0, b > 0, c ≥ 0:
		// always feasible (x=0) and bounded (A positive).
		A := make([][]float64, m)
		b := make([]float64, m)
		c := make([]float64, n)
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = 0.1 + r.Float64()
			}
			b[i] = 0.5 + r.Float64()*5
		}
		for j := range c {
			c[j] = r.Float64() * 3
		}
		primal := NewProblem(n)
		for j, cv := range c {
			primal.SetObjective(j, cv)
		}
		for i := range A {
			coeffs := make(map[int]float64, n)
			for j, a := range A[i] {
				coeffs[j] = a
			}
			primal.AddConstraint(coeffs, LE, b[i])
		}
		ps, err := Solve(primal)
		if err != nil {
			return false
		}
		// Dual: min b·y s.t. Aᵀy ≥ c, y ≥ 0 == max −b·y.
		dual := NewProblem(m)
		for i, bv := range b {
			dual.SetObjective(i, -bv)
		}
		for j := 0; j < n; j++ {
			coeffs := make(map[int]float64, m)
			for i := 0; i < m; i++ {
				coeffs[i] = A[i][j]
			}
			dual.AddConstraint(coeffs, GE, c[j])
		}
		ds, err := Solve(dual)
		if err != nil {
			return false
		}
		return approx(ps.Objective, -ds.Objective)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDualsSimpleKnapsack(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4 (binding), x + 3y ≤ 6 (slack at the
	// optimum x=4,y=0): duals are y1 = 3, y2 = 0.
	p := NewProblem(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	addC(t, p, map[int]float64{0: 1, 1: 1}, LE, 4)
	addC(t, p, map[int]float64{0: 1, 1: 3}, LE, 6)
	s := mustSolve(t, p)
	if !approx(s.Duals[0], 3) || !approx(s.Duals[1], 0) {
		t.Fatalf("duals = %v, want [3 0]", s.Duals)
	}
}

func TestDualsMarginalValue(t *testing.T) {
	// The dual predicts the objective change from a small RHS bump.
	build := func(cap float64) *Problem {
		p := NewProblem(2)
		p.SetObjective(0, 1)
		p.SetObjective(1, 1)
		addC(t, p, map[int]float64{0: 2, 1: 1}, LE, cap)
		addC(t, p, map[int]float64{0: 1, 1: 2}, LE, 4)
		return p
	}
	base := mustSolve(t, build(4))
	const h = 1e-4
	bumped := mustSolve(t, build(4+h))
	predicted := base.Duals[0] * h
	actual := bumped.Objective - base.Objective
	if math.Abs(predicted-actual) > 1e-8 {
		t.Fatalf("dual %g predicts Δ %g, actual %g", base.Duals[0], predicted, actual)
	}
}

func TestDualsEqualityAndGE(t *testing.T) {
	// max 2x + y s.t. x + y = 3, x ≤ 2. Optimum (2,1), obj 5.
	// Duals: equality dual = 1 (one more unit of the equality RHS is
	// worth +1 via y), x-cap dual = 1 (worth 2 direct minus 1 displaced).
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 1)
	addC(t, p, map[int]float64{0: 1, 1: 1}, EQ, 3)
	addC(t, p, map[int]float64{0: 1}, LE, 2)
	s := mustSolve(t, p)
	if !approx(s.Duals[0], 1) || !approx(s.Duals[1], 1) {
		t.Fatalf("duals = %v, want [1 1]", s.Duals)
	}

	// min x s.t. x ≥ 3 (as max −x): dual of the ≥ constraint is −1.
	q := NewProblem(1)
	q.SetObjective(0, -1)
	addC(t, q, map[int]float64{0: 1}, GE, 3)
	sq := mustSolve(t, q)
	if !approx(sq.Duals[0], -1) {
		t.Fatalf("GE dual = %v, want -1", sq.Duals)
	}
}

// TestQuickComplementarySlackness: on random bounded LPs, y_i > 0 only
// on binding constraints, and duality holds: c·x = Σ y_i·b_i.
func TestQuickComplementarySlackness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		m := 1 + r.Intn(5)
		p := NewProblem(n)
		type row struct {
			coeffs map[int]float64
			rhs    float64
		}
		rows := make([]row, m)
		for j := 0; j < n; j++ {
			p.SetObjective(j, r.Float64()*3)
		}
		for i := 0; i < m; i++ {
			coeffs := make(map[int]float64, n)
			for j := 0; j < n; j++ {
				coeffs[j] = 0.1 + r.Float64()
			}
			rhs := 0.5 + r.Float64()*5
			rows[i] = row{coeffs, rhs}
			p.AddConstraint(coeffs, LE, rhs)
		}
		s, err := Solve(p)
		if err != nil {
			return false
		}
		strong := 0.0
		for i, rw := range rows {
			lhs := 0.0
			for v, a := range rw.coeffs {
				lhs += a * s.X[v]
			}
			slack := rw.rhs - lhs
			if s.Duals[i] < -1e-9 {
				return false // LE duals must be non-negative
			}
			if s.Duals[i] > 1e-6 && slack > 1e-6 {
				return false // complementary slackness
			}
			strong += s.Duals[i] * rw.rhs
		}
		// Strong duality: optimal primal = y·b.
		return math.Abs(strong-s.Objective) <= 1e-6*(1+math.Abs(s.Objective))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
