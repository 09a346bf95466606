// Package gradient implements the paper's §5 distributed algorithm for
// joint routing optimization and resource allocation, generalizing
// Gallager's minimum-delay routing (ref. [10]) to stream processing
// with shrinkage factors and per-node resource penalties.
//
// Each iteration performs the three protocol phases of §5 on a
// synchronous schedule:
//
//  1. flow forecast: solve the flow-balance equations under the current
//     routing set (internal/flow.Evaluate);
//  2. marginal-cost wave: compute ∂A/∂r_i(j) from the sinks upstream
//     (eq. 9) together with the per-link marginals of eq. 10/13 and
//     the loop-freedom tags of eq. 18;
//  3. routing update Γ: shift routing fraction from expensive links to
//     each node's best unblocked link (eqs. 14–17).
//
// All per-commodity state is held in the commodity's Subgraph local
// indexing (transform.Subgraph), so one commodity's wave costs O(its
// member edges) in both time and memory.
//
// The synchronous engine is deterministic. Every node's wave step waits
// for all of its inputs, so the protocol's result is a function of
// topology and state alone and one synchronous sweep per wave computes
// it. The engine also accounts for the messages and rounds the
// distributed protocol needs (one message per member edge per wave, as
// many rounds as the deepest member path), supporting the paper's
// O(L)-vs-O(1) message-cost discussion in §6.
package gradient

import (
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/transform"
)

// Marginals holds the first-order information of one iteration for one
// commodity, indexed by the commodity's Subgraph local node/edge
// indexes.
type Marginals struct {
	// Rho[ln] is ∂A/∂r_n(j): the marginal cost of injecting one more
	// unit of commodity-j traffic at member node ln (eq. 9); zero at
	// the sink.
	Rho []float64
	// LinkD[le] is the per-link marginal of eqs. (10) and (13):
	// ∂A_i/∂f_e·c_e(j) + β_e(j)·Rho[head(e)], per member edge.
	LinkD []float64
	// Rounds is the number of sequential message-exchange steps the
	// upstream wave needs: the depth of the member DAG — the L in the
	// paper's O(L) analysis.
	Rounds int
	// Messages counts the rho broadcasts the wave sends (one per member
	// edge, tail <- head).
	Messages int
}

// ComputeMarginals runs the marginal-cost wave for commodity j on the
// evaluated usage u: the allocating, single-commodity diagnostic form
// of the sweep the engines run every iteration (tagging off). It prices
// every extended node first, so callers after all commodities at once
// use CheckStationarity or AttributeAll, which price the nodes once.
func ComputeMarginals(u *flow.Usage, j int) *Marginals {
	return marginalsAt(u, j, nodePrices(u))
}

// marginalsAt is ComputeMarginals against precomputed node prices.
func marginalsAt(u *flow.Usage, j int, price []float64) *Marginals {
	sg := &u.R.X.Sub[j]
	m := &Marginals{
		Rho:      make([]float64, sg.NumNodes()),
		LinkD:    make([]float64, sg.NumEdges()),
		Rounds:   sg.Depth(),
		Messages: sg.NumEdges(),
	}
	sweep(u, j, price, m.Rho, m.LinkD, nil, 0)
	return m
}

// sweep is the one upstream pass of an iteration over commodity j: the
// marginal-cost wave of eqs. 9–13 and, when tagged is non-nil, the
// loop-freedom tags of eq. 18 (see tagNode), both in reverse
// topological order of the member DAG — exactly the order in which the
// distributed protocol's "wait for all downstream values" rule fires.
// A node's tag needs only its own ρ, just computed, and its heads' ρ
// and tags, visited earlier, so the two protocols share the visit.
//
// price[n] is ε·D'_n at the global operating point for every extended
// node (nodePrices): it depends on the node alone, not on the commodity
// or the edge, so it is computed once per iteration instead of once per
// member edge. rho and tagged (local node indexing) and linkD (local
// edge indexing) are fully overwritten.
//
// The wave sends one ρ broadcast per member edge and takes as many
// sequential rounds as the member DAG is deep; both are constants of
// the topology (Subgraph.NumEdges, Subgraph.Depth), not recounted here.
func sweep(u *flow.Usage, j int, price, rho, linkD []float64, tagged []bool, eta float64) {
	x := u.R.X
	sg := &x.Sub[j]
	phi, t := u.R.Phi[j], u.T[j]
	beta, cost, head, nodes := sg.Beta, sg.Cost, sg.Head, sg.Nodes
	sink, diff := sg.Sink, sg.DiffLink
	// U'_j(λ_j − f_e) on the difference link reads only the forecast, so
	// it is evaluated once per commodity, not inside the edge loop.
	diffLoss := x.Commodities[j].Loss.Deriv(u.EdgeFlow(j, diff))
	for _, ln := range sg.RevTopo() {
		if ln == sink {
			rho[ln] = 0 // convention ∂A/∂r_j(j) = 0
			if tagged != nil {
				tagged[ln] = false
			}
			continue
		}
		// ∂A_i/∂f_e·c_e(j), the direct cost of one more unit over edge e
		// at its tail i: from eq. 11, ∂A_i/∂f_e is the barrier derivative
		// ε·D'_i(f_i) everywhere except on a difference link, where the
		// utility-loss derivative U'_j(λ_j − f_e) joins it.
		outs := sg.Out(ln)
		p := price[nodes[ln]]
		r := 0.0
		for _, le := range outs {
			var loss float64
			if le == diff {
				loss = diffLoss
			}
			d := (p+loss)*cost[le] + beta[le]*rho[head[le]]
			linkD[le] = d
			r += phi[le] * d
		}
		rho[ln] = r
		if tagged != nil {
			tagged[ln] = tagNode(outs, phi, beta, head, rho, linkD, tagged, r, t[ln], eta)
		}
	}
}

// RhoAt reads Rho by extended node ID (zero for non-member nodes).
// O(log member nodes); diagnostics and tests only — hot loops index the
// local arrays directly.
func (m *Marginals) RhoAt(sg *transform.Subgraph, n graph.NodeID) float64 {
	if ln := sg.LocalNode(n); ln >= 0 {
		return m.Rho[ln]
	}
	return 0
}

// LinkDAt reads LinkD by extended edge ID (zero for non-member edges).
func (m *Marginals) LinkDAt(sg *transform.Subgraph, e graph.EdgeID) float64 {
	if le := sg.LocalEdge(e); le >= 0 {
		return m.LinkD[le]
	}
	return 0
}
