package gradient

import (
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/transform"
)

// ComputeMarginals runs the marginal-cost wave for commodity j on the
// evaluated usage u, pricing every extended node first.
func ComputeMarginals(u *flow.Usage, j int) *Marginals {
	return marginalsAt(u, j, nodePrices(u))
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
