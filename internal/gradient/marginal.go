// Package gradient implements the paper's §5 distributed algorithm for
// joint routing optimization and resource allocation, generalizing
// Gallager's minimum-delay routing (ref. [10]) to stream processing
// with shrinkage factors and per-node resource penalties.
//
// Each iteration performs the three protocol phases of §5 on a
// synchronous schedule:
//
//  1. flow forecast: solve the flow-balance equations under the current
//     routing set (internal/flow);
//  2. marginal-cost wave: compute ∂A/∂r_i(j) from the sinks upstream
//     (eq. 9) together with the per-link marginals of eq. 10/13 and
//     the loop-freedom tags of eq. 18;
//  3. routing update Γ: shift routing fraction from expensive links to
//     each node's best unblocked link (eqs. 14–17).
//
// The phases are per commodity, and the engine runs them that way: one
// visit per commodity runs its wave and Γ, then forecasts the new row,
// the next iteration's phase 1, while the commodity's state is still in
// cache. All per-commodity state is held in the commodity's Subgraph
// local indexing (transform.Subgraph), so one commodity's visit costs
// O(its member edges) in both time and memory.
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
	"repro/internal/utility"
)

// sweep is the one upstream pass of an iteration over commodity j: the
// marginal-cost wave of eqs. 9–13 and, when tagged is non-nil, the
// loop-freedom tags of eq. 18 (see tagNode), both in reverse
// topological order of the member DAG — exactly the order in which the
// distributed protocol's "wait for all downstream values" rule fires.
// A node's tag needs only its own ρ, just computed, and its heads' ρ
// and tags, visited earlier, so the two protocols share the visit.
//
// price[n] is ε·D'_n at the global operating point for every extended
// node (arena.evaluate): it depends on the node alone, not on the
// commodity or the edge, so it is computed once per iteration instead of
// once per member edge. rho and tagged (local node indexing) and linkD (local
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
	outIdx, outEdges := sg.CSR()
	sink, diff := sg.Sink, sg.DiffLink
	// U'_j(λ_j − f_e) on the difference link reads only the forecast, so
	// it is evaluated once per commodity, not inside the edge loop.
	// A Linear U' is its slope whatever the flow, so for that family
	// the sweep reads the slope off the concrete type and skips the
	// forecast read and the interface calls (as evaluate does for the
	// reciprocal barrier); Loss.Deriv would return the same double.
	var diffLoss float64
	if lin, ok := x.Commodities[j].Loss.U.(utility.Linear); ok {
		diffLoss = lin.Slope
	} else {
		diffLoss = x.Commodities[j].Loss.Deriv(u.EdgeFlow(j, diff))
	}
	// last and lastRho are the node visited just before and the ρ it
	// got. A node whose one out-edge leads there — every chain node —
	// takes its head's ρ from lastRho instead of reloading the rho[]
	// entry just stored, which takes that store-to-load round trip off
	// the sweep's chain of dependent operations. Same operand, same bits.
	last, lastRho := int32(-1), 0.0
	for _, ln := range sg.RevTopo() {
		if ln == sink {
			rho[ln] = 0 // convention ∂A/∂r_j(j) = 0
			if tagged != nil {
				tagged[ln] = false
			}
			last, lastRho = ln, 0
			continue
		}
		// ∂A_i/∂f_e·c_e(j), the direct cost of one more unit over edge e
		// at its tail i: from eq. 11, ∂A_i/∂f_e is the barrier derivative
		// ε·D'_i(f_i) everywhere except on a difference link, where the
		// utility-loss derivative U'_j(λ_j − f_e) joins it.
		outs := outEdges[outIdx[ln]:outIdx[ln+1]]
		p := price[nodes[ln]]
		r := 0.0
		if len(outs) == 1 && head[outs[0]] == last {
			le := outs[0]
			direct := p
			if le == diff {
				direct += diffLoss
			}
			d := direct*cost[le] + beta[le]*lastRho
			linkD[le] = d
			r += phi[le] * d
		} else {
			for _, le := range outs {
				direct := p
				if le == diff {
					direct += diffLoss
				}
				d := direct*cost[le] + beta[le]*rho[head[le]]
				linkD[le] = d
				r += phi[le] * d
			}
		}
		rho[ln] = r
		last, lastRho = ln, r
		if tagged != nil {
			tagged[ln] = tagNode(outs, phi, beta, head, rho, linkD, tagged, r, t[ln], eta)
		}
	}
}
