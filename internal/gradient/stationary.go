package gradient

import (
	"math"

	"repro/internal/flow"
)

// Thresholds below which traffic and routing fractions are treated as
// zero by CheckStationarity.
const (
	MinTraffic = 1e-6
	MinPhi     = 1e-6
)

// CheckStationarity returns how far the evaluated flows u are from
// Theorem 2's necessary optimality condition (eq. 12: at an optimal
// routing every used link's marginal equals the node's minimum
// marginal), as a convergence test: the largest (d_e − min_d)/(1+min_d)
// over links with φ_e > MinPhi at nodes with t_i > MinTraffic, zero at
// a stationary point. It runs in a fresh arena, priced by its own node
// pass (evaluate) at u's own flow: no other shard's flow is added.
// Iteration loops ask their engine instead (Engine.Stationarity), which
// runs the same check on the workspaces it already owns; this form
// serves one-off diagnostics on a usage that no engine holds.
func CheckStationarity(u *flow.Usage) float64 {
	a := newArena(u.R.X, false)
	a.evaluate(u, 0)
	return a.stationarity(u, math.Inf(1))
}

// stationarity runs the convergence test on the arena's workspaces,
// whose price vector must hold u's node prices: per commodity the
// marginal sweep (tagging off) and the used-link gaps of eq. 12. It
// allocates nothing, so convergence detection grounded in the paper's
// optimality theory rather than in utility deltas costs an iteration
// loop at most one extra wave. It skips the rows the wave skips (skips):
// each sits at a vertex whose best links keep a strict lead, so its
// used-link gaps are exactly 0 (or −0), and none can raise a maximum
// that starts at 0. It stops at the first row whose gap exceeds bound,
// where a check's verdict (≤ bound) is settled; +Inf gives the full gap.
func (a *arena) stationarity(u *flow.Usage, bound float64) (maxGap float64) {
	rho, linkD := a.scratch.rho, a.scratch.linkD
	for j := range a.x.Sub {
		if a.screen != nil && a.skips(j) {
			continue
		}
		sweep(u, j, a.price, rho, linkD, nil, 0)
		sg := &a.x.Sub[j]
		phi, t := u.R.Phi[j], u.T[j]
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
				// Not max: a NaN gap leaves the maximum as it is.
				if gap := (linkD[le] - minD) / (1 + minD); phi[le] > MinPhi && gap > maxGap {
					maxGap = gap
				}
			}
		}
		if maxGap > bound {
			return maxGap
		}
	}
	return maxGap
}
