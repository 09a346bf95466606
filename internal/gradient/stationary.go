package gradient

import (
	"math"

	"repro/internal/flow"
	"repro/internal/graph"
)

// StationarityReport quantifies how far a routing set is from
// satisfying Theorem 2's optimality conditions, as a convergence
// diagnostic: at an optimal routing every used link's marginal equals
// the node's minimum marginal (eq. 12), and every link — used or not —
// satisfies the sufficient condition d_e ≥ ρ_i (eq. 13).
type StationarityReport struct {
	// MaxUsedGap is the largest (d_e − min_d)/(1+min_d) over links with
	// φ_e > MinPhi at nodes with t_i > MinTraffic: the necessary
	// condition's residual. Zero at a stationary point.
	MaxUsedGap float64
	// MaxSufficientViolation is the largest (ρ_i − d_e)/(1+ρ_i) over
	// ALL member links at traffic-carrying nodes: positive values mean
	// eq. 13 fails somewhere, i.e. the point may not be globally
	// optimal even if stationary.
	MaxSufficientViolation float64
	// WorstNode locates MaxUsedGap.
	WorstNode graph.NodeID
	// WorstCommodity locates MaxUsedGap.
	WorstCommodity int
}

// Thresholds below which traffic and routing fractions are treated as
// zero by CheckStationarity.
const (
	MinTraffic = 1e-6
	MinPhi     = 1e-6
)

// CheckStationarity evaluates Theorem 2's conditions on the evaluated
// flows u, in freshly allocated workspaces. Iteration loops ask their
// engine instead (Engine.Stationarity), which runs the same check on
// the workspaces it already owns; this form serves one-off diagnostics
// on a usage that no engine holds.
func CheckStationarity(u *flow.Usage) StationarityReport {
	a := newArena(u.R.X, false)
	fillNodePrices(u, a.price)
	return a.stationarity(u)
}

// stationarity runs the convergence test on the arena's workspaces,
// whose price vector must hold u's node prices: per commodity the
// marginal sweep (tagging off) and the residuals of eqs. 12 and 13. It
// allocates nothing, so convergence detection grounded in the paper's
// optimality theory rather than in utility deltas costs an iteration
// loop about one extra wave. It skips the rows the screen holds with a
// positive bound: each sits at a vertex whose best links keep their
// lead, so its used-link gaps are exactly 0 and its eq.-13 residuals
// at most 0, and neither can raise a maximum that starts at 0.
func (a *arena) stationarity(u *flow.Usage) StationarityReport {
	rho, linkD := a.scratch.rho, a.scratch.linkD
	rep := StationarityReport{WorstNode: graph.Invalid, WorstCommodity: -1}
	for j := range a.x.Sub {
		if a.screen != nil && a.driftOf(j) < a.screen[j].s {
			continue
		}
		sweep(u, j, a.price, rho, linkD, nil, 0)
		sg := &a.x.Sub[j]
		phi, t := u.R.Phi[j], u.T[j]
		// Member nodes in ascending local index — the same ascending
		// global-ID order the dense full-graph scan visited, since
		// non-member nodes carried no traffic and were skipped.
		for ln := int32(0); ln < int32(sg.NumNodes()); ln++ {
			if ln == sg.Sink || t[ln] <= MinTraffic {
				continue
			}
			outs := sg.Out(ln)
			minD := math.Inf(1)
			for _, le := range outs {
				if linkD[le] < minD {
					minD = linkD[le]
				}
			}
			if math.IsInf(minD, 1) {
				continue
			}
			for _, le := range outs {
				if phi[le] > MinPhi {
					gap := (linkD[le] - minD) / (1 + minD)
					if gap > rep.MaxUsedGap {
						rep.MaxUsedGap = gap
						rep.WorstNode = sg.Nodes[ln]
						rep.WorstCommodity = j
					}
				}
				if viol := (rho[ln] - linkD[le]) / (1 + rho[ln]); viol > rep.MaxSufficientViolation {
					rep.MaxSufficientViolation = viol
				}
			}
		}
	}
	return rep
}
