// Package lp is a dense two-phase primal simplex solver for linear
// programs, built for the reference-optimum baselines of §6 (the
// paper's horizontal "optimal total throughput" line is an LP optimum;
// the authors used an unnamed commercial solver, we use this one).
//
// The solver handles maximize c·x subject to Ax {≤,=,≥} b, x ≥ 0. It
// pivots by Dantzig's rule and falls back to Bland's rule after a run
// of degenerate pivots, which guarantees termination.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota + 1 // Σ a_j x_j ≤ b
	GE                  // Σ a_j x_j ≥ b
	EQ                  // Σ a_j x_j = b
)

// Problem is a linear program over variables x_0..x_{n-1} ≥ 0.
type Problem struct {
	numVars     int
	objective   []float64
	constraints []constraint
}

type constraint struct {
	coeffs map[int]float64
	sense  Sense
	rhs    float64
}

// NewProblem returns an empty maximization problem with n variables.
func NewProblem(n int) *Problem {
	return &Problem{numVars: n, objective: make([]float64, n)}
}

// SetObjective sets the coefficient of x_v in the maximized objective.
func (p *Problem) SetObjective(v int, coeff float64) error {
	if v < 0 || v >= p.numVars {
		return fmt.Errorf("lp: no variable %d", v)
	}
	p.objective[v] = coeff
	return nil
}

// AddConstraint appends Σ coeffs[v]·x_v (sense) rhs.
func (p *Problem) AddConstraint(coeffs map[int]float64, sense Sense, rhs float64) error {
	cp := make(map[int]float64, len(coeffs))
	for v, a := range coeffs {
		if v < 0 || v >= p.numVars {
			return fmt.Errorf("lp: constraint references variable %d", v)
		}
		if a != 0 {
			cp[v] = a
		}
	}
	p.constraints = append(p.constraints, constraint{coeffs: cp, sense: sense, rhs: rhs})
	return nil
}

// Solution is the optimum Solve found.
type Solution struct {
	X         []float64
	Objective float64
	// Duals[i] is constraint i's dual value (shadow price): the rate at
	// which the optimum improves per unit of right-hand-side slack.
	// Non-negative for ≤ constraints, non-positive for ≥, free for =.
	// Read from the identity column's reduced cost at optimality.
	Duals []float64
}

// Sentinel errors for non-optimal outcomes.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
	ErrStalled    = errors.New("lp: iteration limit exceeded")
)

const (
	tol = 1e-9
	// degenerateRun switches pivoting to Bland's rule after this many
	// consecutive zero-progress pivots.
	degenerateRun = 40
)

// Solve runs two-phase primal simplex. It returns a solution only at
// an optimum; any other outcome is the error alone (ErrInfeasible,
// ErrUnbounded, ErrStalled or an internal one).
func Solve(p *Problem) (*Solution, error) {
	t := newTableau(p)
	if err := t.phase1(); err != nil {
		return nil, err
	}
	if err := t.phase2(p.objective); err != nil {
		return nil, err
	}
	x := t.extract(p.numVars)
	obj := 0.0
	for v, c := range p.objective {
		obj += c * x[v]
	}
	return &Solution{X: x, Objective: obj, Duals: t.duals(p)}, nil
}

// tableau is the dense simplex tableau: rows = constraints, columns =
// structural + slack/surplus + artificial variables, plus an rhs column
// and an objective row held separately.
type tableau struct {
	m, n     int // constraint rows, total columns (excl. rhs)
	rows     [][]float64
	rhs      []float64
	obj      []float64 // reduced-cost row (for maximization: pivot while obj[j] < -tol ... see note)
	objRHS   float64
	basis    []int
	artFirst int // first artificial column index; len(n) when none
	// idCol[i] is the column holding constraint i's +1 identity entry
	// (slack for ≤ after normalization, artificial otherwise); its
	// reduced cost at optimality is the constraint's dual value.
	idCol []int
	// flipped[i] records that constraint i's row was negated during
	// b ≥ 0 normalization (its dual flips sign back in duals()).
	flipped []bool
	// inPhase2 excludes artificial columns from entering the basis.
	inPhase2 bool
}

// newTableau builds the phase-1-ready tableau with b ≥ 0.
func newTableau(p *Problem) *tableau {
	m := len(p.constraints)
	// Column layout: structural | slack/surplus | artificial.
	extra := 0
	for _, c := range p.constraints {
		if c.sense != EQ {
			extra++
		}
	}
	nArt := 0
	for _, c := range p.constraints {
		rhs := c.rhs
		sense := c.sense
		if rhs < 0 {
			sense = flip(sense)
		}
		if sense != LE {
			nArt++
		}
	}
	n := p.numVars + extra + nArt
	t := &tableau{
		m: m, n: n,
		rows:     make([][]float64, m),
		rhs:      make([]float64, m),
		obj:      make([]float64, n),
		basis:    make([]int, m),
		idCol:    make([]int, m),
		flipped:  make([]bool, m),
		artFirst: p.numVars + extra,
	}
	slackCol := p.numVars
	artCol := t.artFirst
	for i, c := range p.constraints {
		row := make([]float64, n)
		sign := 1.0
		sense := c.sense
		if c.rhs < 0 {
			sign = -1
			sense = flip(sense)
		}
		for v, a := range c.coeffs {
			row[v] = sign * a
		}
		t.rhs[i] = sign * c.rhs
		t.flipped[i] = sign < 0
		switch sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			t.idCol[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1 // surplus
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			t.idCol[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			t.idCol[i] = artCol
			artCol++
		}
		t.rows[i] = row
	}
	return t
}

func flip(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// phase1 minimizes the sum of artificial variables; feasible iff the
// minimum is zero.
func (t *tableau) phase1() error {
	if t.artFirst == t.n {
		return nil // no artificials: the all-slack basis is feasible
	}
	// Maximize −Σ artificials. Reduced-cost row: start from −c where
	// c_j = −1 on artificials, then zero out basic columns.
	for j := range t.obj {
		t.obj[j] = 0
		if j >= t.artFirst {
			t.obj[j] = 1 // −c_j with c_j = −1
		}
	}
	t.objRHS = 0
	for i, b := range t.basis {
		if b >= t.artFirst {
			t.subtractRowFromObj(i)
		}
	}
	if err := t.iterate(false); err != nil {
		return err
	}
	if t.objRHS < -1e-7 {
		return fmt.Errorf("%w: artificial residual %g", ErrInfeasible, -t.objRHS)
	}
	// Pivot lingering artificials (at zero level) out of the basis
	// where possible; rows with no eligible column are redundant and
	// harmless.
	for i, b := range t.basis {
		if b < t.artFirst {
			continue
		}
		for j := 0; j < t.artFirst; j++ {
			if math.Abs(t.rows[i][j]) > tol {
				t.pivot(i, j)
				break
			}
		}
	}
	// Artificial columns stay in the tableau — their reduced costs at
	// optimality are the duals of their constraints — but phase 2 never
	// lets them re-enter the basis (chooseEntering stops at artFirst
	// once inPhase2 is set).
	t.inPhase2 = true
	return nil
}

// phase2 maximizes the real objective from the feasible basis.
func (t *tableau) phase2(objective []float64) error {
	for j := range t.obj {
		t.obj[j] = 0
	}
	for v, c := range objective {
		t.obj[v] = -c
	}
	t.objRHS = 0
	for i, b := range t.basis {
		if b < len(objective) && objective[b] != 0 {
			t.addMultipleToObj(i, objective[b])
		}
	}
	return t.iterate(true)
}

// subtractRowFromObj performs obj -= rows[i] (rhs included).
func (t *tableau) subtractRowFromObj(i int) {
	for j := range t.obj {
		t.obj[j] -= t.rows[i][j]
	}
	t.objRHS -= t.rhs[i]
}

// addMultipleToObj performs obj += mult·rows[i] (rhs included).
func (t *tableau) addMultipleToObj(i int, mult float64) {
	for j := range t.obj {
		t.obj[j] += mult * t.rows[i][j]
	}
	t.objRHS += mult * t.rhs[i]
}

// iterate pivots until optimal. allowUnbounded selects the error for a
// missing ratio row (phase 1 is always bounded).
func (t *tableau) iterate(allowUnbounded bool) error {
	maxIters := 200*(t.m+t.n) + 5000
	degenerate := 0
	for iter := 0; iter < maxIters; iter++ {
		col := t.chooseEntering(degenerate >= degenerateRun)
		if col < 0 {
			return nil // optimal
		}
		row := t.chooseLeaving(col)
		if row < 0 {
			if allowUnbounded {
				return ErrUnbounded
			}
			return fmt.Errorf("lp: phase-1 unbounded (internal error)")
		}
		if t.rhs[row] < tol {
			degenerate++
		} else {
			degenerate = 0
		}
		t.pivot(row, col)
	}
	return ErrStalled
}

// chooseEntering picks a column with negative reduced cost: the most
// negative (Dantzig) or the lowest-indexed (Bland, anti-cycling).
func (t *tableau) chooseEntering(bland bool) int {
	limit := t.n
	if t.inPhase2 {
		limit = t.artFirst
	}
	if bland {
		for j := 0; j < limit; j++ {
			if t.obj[j] < -tol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -tol
	for j := 0; j < limit; j++ {
		if t.obj[j] < bestVal {
			bestVal = t.obj[j]
			best = j
		}
	}
	return best
}

// chooseLeaving runs the minimum-ratio test; ties break toward the
// smallest basis index (part of Bland's rule).
func (t *tableau) chooseLeaving(col int) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		a := t.rows[i][col]
		if a <= tol {
			continue
		}
		ratio := t.rhs[i] / a
		if ratio < bestRatio-tol || (ratio < bestRatio+tol && (best < 0 || t.basis[i] < t.basis[best])) {
			bestRatio = ratio
			best = i
		}
	}
	return best
}

// pivot makes column col basic in row row.
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	t.rhs[row] *= inv
	pr[col] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.rows[i][col]
		if f == 0 {
			continue
		}
		ri := t.rows[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
		t.rhs[i] -= f * t.rhs[row]
	}
	if f := t.obj[col]; f != 0 {
		for j := range t.obj {
			t.obj[j] -= f * pr[j]
		}
		t.obj[col] = 0
		t.objRHS -= f * t.rhs[row]
	}
	t.basis[row] = col
}

// duals reads the constraint duals out of the optimal reduced-cost
// row: the identity column of constraint i carries y_i (negated back
// when normalization flipped the row).
func (t *tableau) duals(p *Problem) []float64 {
	// The reduced cost of constraint i's identity column (+e_i with
	// zero objective coefficient) is exactly the simplex multiplier
	// π_i = c_B·B⁻¹·e_i of the normalized row, which IS the dual:
	// ≥ 0 where the normalized row is ≤, ≤ 0 where it is ≥, free for =.
	// Rows negated during b ≥ 0 normalization carry the negated
	// multiplier, so those flip back.
	_ = p
	y := make([]float64, t.m)
	for i := 0; i < t.m; i++ {
		v := t.obj[t.idCol[i]]
		if t.flipped[i] {
			v = -v
		}
		y[i] = v
	}
	return y
}

// extract reads the structural variable values out of the basis.
func (t *tableau) extract(numVars int) []float64 {
	x := make([]float64, numVars)
	for i, b := range t.basis {
		if b < numVars {
			x[b] = t.rhs[i]
		}
	}
	return x
}

// NumConstraints reports the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }
