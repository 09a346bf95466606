package gradient

import (
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/transform"
)

// Marginals holds one commodity's marginal-cost wave, indexed by its
// Subgraph local node/edge indexes.
type Marginals struct {
	// Rho[ln] is ∂A/∂r_n(j): the marginal cost of injecting one more
	// unit of commodity-j traffic at member node ln (eq. 9); zero at
	// the sink.
	Rho []float64
	// LinkD[le] is the per-link marginal of eqs. (10) and (13):
	// ∂A_i/∂f_e·c_e(j) + β_e(j)·Rho[head(e)], per member edge.
	LinkD []float64
}

// ComputeMarginals runs the marginal-cost wave for commodity j on the
// evaluated usage u, pricing every extended node first.
func ComputeMarginals(u *flow.Usage, j int) *Marginals {
	sg := &u.R.X.Sub[j]
	m := &Marginals{Rho: make([]float64, sg.NumNodes()), LinkD: make([]float64, sg.NumEdges())}
	sweep(u, j, refPrices(u, nil), m.Rho, m.LinkD, nil, 0)
	return m
}

// AttributeAll explains every commodity at the evaluated usage u, each
// with a Binding slice of its own.
func AttributeAll(u *flow.Usage) []Attribution {
	a := NewAttributor(u)
	out := make([]Attribution, u.R.X.NumCommodities())
	for j := range out {
		a.Attribute(j, &out[j])
	}
	return out
}

// RhoAt reads Rho by extended node ID (zero for non-member nodes).
func (m *Marginals) RhoAt(sg *transform.Subgraph, n graph.NodeID) float64 {
	if ln := graph.Local(sg.Nodes, n); ln >= 0 {
		return m.Rho[ln]
	}
	return 0
}

// LinkDAt reads LinkD by extended edge ID (zero for non-member edges).
func (m *Marginals) LinkDAt(sg *transform.Subgraph, e graph.EdgeID) float64 {
	if le := graph.Local(sg.Edges, e); le >= 0 {
		return m.LinkD[le]
	}
	return 0
}

// Backtracks counts the steps rejected so far (always zero without
// Config.Backtrack).
func (e *Engine) Backtracks() int { return e.backtracks }

// Screened counts the rows the next Step's wave skips. It first brings
// the engine's view of its routing up to date, as that Step would, so
// the count is the wave's own and the trajectory does not change.
func (e *Engine) Screened() int {
	e.measure()
	n := 0
	for j := range e.arena.screen {
		if e.arena.skips(j) {
			n++
		}
	}
	return n
}
