// Package refopt computes the reference optimum the paper draws as the
// horizontal "optimal total throughput" line in Figure 4. For linear
// utilities the joint admission/routing/allocation problem is exactly a
// linear program (the §2 formulation with flow-balance, node-capacity
// and admission constraints); for concave utilities the objective is
// replaced by a piecewise-linear inner approximation whose error
// vanishes with the segment count (concavity makes the approximation a
// true lower bound that the LP fills greedily in slope order).
//
// The LP is formulated on the extended graph of internal/transform so
// node capacities and link bandwidths are a single uniform constraint
// family, exactly as §3 argues.
package refopt

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/transform"
	"repro/internal/utility"
)

// Result is the reference optimum.
type Result struct {
	// Utility is Σ_j U_j(a_j) at the optimum (for PWL objectives this
	// evaluates the true U at the optimal admitted rates, not the PWL
	// surrogate).
	Utility float64
	// Admitted is a_j per commodity.
	Admitted []float64
	// EdgeInput[j][e] is the optimal input rate processed over extended
	// edge e for commodity j (the y variables).
	EdgeInput [][]float64
	// ShadowPrice[n] is the dual value of node n's capacity constraint:
	// the marginal utility of one more unit of capacity there (Kelly's
	// shadow prices, ref. [13]). Zero for uncapacitated and non-binding
	// nodes.
	ShadowPrice []float64
}

// DefaultSegments is the PWL segment count used when Options.Segments
// is zero; at 64 segments the approximation error of a concave utility
// is far below the convergence tolerances used anywhere in this repo.
const DefaultSegments = 64

// Options tunes the reference solve.
type Options struct {
	// Segments is the piecewise-linear segment count per concave
	// utility. Linear utilities always use a single exact segment.
	Segments int
}

// Solve computes the reference optimum for the instance.
func Solve(x *transform.Extended, opts Options) (*Result, error) {
	if opts.Segments <= 0 {
		opts.Segments = DefaultSegments
	}

	ne := x.NumEdges()
	nc := x.NumCommodities()

	// Variable layout: per commodity, one y variable per member edge
	// (Subgraph local index; ascending local index is ascending global
	// edge ID, so the numbering matches the old dense member scan), then
	// PWL segment variables per commodity.
	varOf := make([][]int, nc) // varOf[j][le] = LP variable
	numVars := 0
	for j := 0; j < nc; j++ {
		varOf[j] = make([]int, x.Sub[j].NumEdges())
		for le := range varOf[j] {
			varOf[j][le] = numVars
			numVars++
		}
	}
	type segment struct {
		v     int
		slope float64
		width float64
	}
	segs := make([][]segment, nc)
	for j := 0; j < nc; j++ {
		c := &x.Commodities[j]
		n := opts.Segments
		if _, linear := c.Utility.(utility.Linear); linear {
			n = 1
		}
		width := c.MaxRate / float64(n)
		for k := 0; k < n; k++ {
			lo, hi := width*float64(k), width*float64(k+1)
			segs[j] = append(segs[j], segment{
				v:     numVars,
				slope: (c.Utility.Value(hi) - c.Utility.Value(lo)) / width,
				width: width,
			})
			numVars++
		}
	}

	p := lp.NewProblem(numVars)
	for j := 0; j < nc; j++ {
		for _, s := range segs[j] {
			if err := p.SetObjective(s.v, s.slope); err != nil {
				return nil, err
			}
			if err := p.AddConstraint(map[int]float64{s.v: 1}, lp.LE, s.width); err != nil {
				return nil, err
			}
		}
	}

	// Admission coupling: Σ_k s_jk = a_j = y on the input link.
	for j := 0; j < nc; j++ {
		coeffs := map[int]float64{varOf[j][x.Sub[j].InputLink]: 1}
		for _, s := range segs[j] {
			coeffs[s.v] -= 1
			if coeffs[s.v] == 0 {
				delete(coeffs, s.v)
			}
		}
		if err := p.AddConstraint(coeffs, lp.EQ, 0); err != nil {
			return nil, err
		}
	}

	// Flow balance with shrinkage (eq. 7) per commodity per member node:
	// Σ_out y_e − Σ_in β_e·y_e = r (λ_j at the dummy, 0 elsewhere,
	// unconstrained at the sink). One pass over the member edges writes
	// each edge's +1 into its tail's row and its −β into its head's; an
	// edge's tail and head differ, so each coefficient is written once.
	// Ascending local node index visits the same nodes in the same order
	// as the old full-graph scan (nodes without member edges produced no
	// constraint rows there), so the LP rows — and therefore the dual
	// indices — are unchanged.
	for j := 0; j < nc; j++ {
		c := &x.Commodities[j]
		sg := &x.Sub[j]
		rows := make([]map[int]float64, sg.NumNodes())
		for ln := range rows {
			rows[ln] = make(map[int]float64)
		}
		for le, v := range varOf[j] {
			rows[sg.Tail[le]][v] += 1
			rows[sg.Head[le]][v] -= sg.Beta[le]
		}
		for ln, coeffs := range rows {
			if int32(ln) == sg.Sink {
				continue
			}
			rhs := 0.0
			if int32(ln) == sg.Dummy {
				rhs = c.MaxRate
			}
			if len(coeffs) == 0 {
				if rhs != 0 {
					return nil, fmt.Errorf("refopt: commodity %q: dummy node has no member edges", c.Name)
				}
				continue
			}
			if err := p.AddConstraint(coeffs, lp.EQ, rhs); err != nil {
				return nil, err
			}
		}
	}

	// Capacity (eq. 6): Σ_j Σ_{e ∈ out(n)} c_e(j)·y_e(j) ≤ C_n for
	// every capacitated node (bandwidth nodes carry B_ik here), scanned
	// via a per-node inverted list of (commodity, local node) presences.
	// capRow[n] records each capacity constraint's LP row so the dual
	// values can be read back as per-node shadow prices.
	type visit struct{ j, ln int32 }
	at := make([][]visit, x.NumNodes())
	for j := 0; j < nc; j++ {
		for ln, n := range x.Sub[j].Nodes {
			at[n] = append(at[n], visit{j: int32(j), ln: int32(ln)})
		}
	}
	capRow := make([]int, x.NumNodes())
	nRows := countRows(p)
	for n := 0; n < x.NumNodes(); n++ {
		capRow[n] = -1
		capn := x.Capacity[n]
		if math.IsInf(capn, 1) {
			continue
		}
		coeffs := make(map[int]float64)
		for _, v := range at[n] {
			sg := &x.Sub[v.j]
			for _, le := range sg.Out(v.ln) {
				coeffs[varOf[v.j][le]] += sg.Cost[le]
			}
		}
		if len(coeffs) == 0 {
			continue
		}
		if err := p.AddConstraint(coeffs, lp.LE, capn); err != nil {
			return nil, err
		}
		capRow[n] = nRows
		nRows++
	}

	sol, err := lp.Solve(p)
	if err != nil {
		return nil, fmt.Errorf("refopt: %w", err)
	}

	res := &Result{
		Admitted:    make([]float64, nc),
		EdgeInput:   make([][]float64, nc),
		ShadowPrice: make([]float64, x.NumNodes()),
	}
	for n, row := range capRow {
		if row >= 0 {
			res.ShadowPrice[n] = sol.Duals[row]
		}
	}
	for j := 0; j < nc; j++ {
		c := &x.Commodities[j]
		sg := &x.Sub[j]
		res.Admitted[j] = sol.X[varOf[j][sg.InputLink]]
		res.Utility += c.Utility.Value(res.Admitted[j])
		// EdgeInput stays dense over extended edges: external consumers
		// (experiments, reports) index it by global edge ID.
		res.EdgeInput[j] = make([]float64, ne)
		for le, e := range sg.Edges {
			res.EdgeInput[j][e] = sol.X[varOf[j][le]]
		}
	}
	return res, nil
}

// countRows reports how many constraints a problem has so far (used to
// map capacity constraints to dual indices).
func countRows(p *lp.Problem) int { return p.NumConstraints() }
