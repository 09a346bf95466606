package gradient

import (
	"math"

	"repro/internal/flow"
	"repro/internal/transform"
)

// The screened serving step (DESIGN.md §6, "Screened serving step").
// After its first few hundred steps a serving engine moves a few
// percent of its rows per step; most sit at a vertex — every branch
// node holds all its mass on its best link — where Γ returns them bit
// for bit. The screen skips such a row while the node prices cannot
// have moved far enough to change any of its best links:
//
//   - At row j's last sweep Γ left the row as it was, every branch node
//     held all its mass on its best link, and the smallest margin there,
//     m_j = min(second-best − best link marginal), cleared a rounding
//     guard. So the spare routing's row j equals R's, and the heavy-ball
//     term of the row is 0 for as long as it stays screened.
//   - A link marginal d_e = p_tail·c_e + β_e·ρ_head (+ the loss
//     derivative, fixed while the row is) moves by at most Π·V(e) when
//     no node price moves by more than Π: V(e) = c_e·[the tail's price
//     can move] + β_e·S(head), S(n) = max over n's member out-edges of
//     V, S(sink) = 0. Only shared nodes have prices that move; a dummy
//     node's is 0 for good. So a branch node's margin shrinks by at most
//     Π times the sum of its two largest V, and W_j is the largest such
//     sum over j's branch nodes (width).
//   - arena.drift, Π, sums every node pass's largest price change
//     (evaluate), so Π − Π_j bounds the price change since the sweep,
//     and the row is skipped while Π < s_j = Π_j + m_j/W_j.
//   - A row whose best link at every branch node is its difference
//     link (a rejected row) waits only on price falls: that link's
//     marginal is constant (it leads to the sink, V = 0), and the input
//     link's is nondecreasing in every price while φ, c and β are ≥ 0.
//     arena.fall, Π⁻, sums every node pass's largest price fall, and
//     such a row is skipped while Π⁻ < s_j = Π⁻_j + m_j/W_j.
//
// A screened row is not read at all: its admitted rate comes from the
// current measures, its utility and utility-loss terms and (while it
// admits nothing) its dummy node's usage from the row's rowScreen, so
// the trajectory is bitwise the unscreened one. A row that admits flow
// is forecast again: its usage terms land in shared nodes, and FNode is
// summed in commodity order. A row whose screen expired is swept once;
// if it still sits at its vertex it is screened again from that sweep
// (arena.update) and added as a screened row is.

// screenGuard is the screen's rounding guard: the share of the best and
// second-best link marginals a margin must clear, and the share of
// m_j/W_j the drift budget gives up, so that the rounding in the
// marginals, in W_j and in the drift sum cannot let a screened row's
// best link change.
const screenGuard = 1e-9

// rowScreen is one commodity row's screen state and what a screened
// wave adds in its place: 32 bytes per row.
type rowScreen struct {
	// s is the drift up to which the row is screened: the wave and the
	// stationarity check skip it while its drift (arena.driftOf) < s.
	// Zero, the reset value, sweeps the row.
	s float64
	// u and y are the U_j and Y_j terms measureRow returned for the row
	// at its last sweep, and dummy the usage its forecast left at its
	// dummy node, which is all the forecast writes while a_j = 0.
	u, y, dummy float64
}

// skips reports whether the wave and the stationarity check skip row j.
func (a *arena) skips(j int) bool { return a.driftOf(j) < a.screen[j].s }

// driftOf is the drift row j's screen bound is set against: Π⁻ for a
// row only a price fall can unscreen, else Π.
func (a *arena) driftOf(j int) float64 {
	if a.falls[j] {
		return a.fall
	}
	return a.drift
}

// unscreen makes the next wave sweep every row and marks the capacitated
// nodes afresh: after Restart, whose parameters may move any marginal,
// any cached term and any capacity.
func (a *arena) unscreen() {
	clear(a.screen)
	clear(a.falls)
	a.drift, a.fall = 0, 0
	a.indexCapped()
}

// rescreen sets row j's screen after a sweep, which left the row's
// link marginals in the scratch's linkD, given the row next its update
// leaves (Γ's proposal, or the current row itself when the wave
// re-screens it from its sweep), and reports whether the row is
// screened. The bound is Π + m_j/W_j, rounded down, when next is the
// current row bit for bit, every branch node holds all its mass on a
// best link that leads the next one by more than the rounding guard,
// and Γ — plus a zero heavy-ball term — would return the row bit for
// bit: every other link's φ is +0 and the best link's positive and
// finite. Else it is 0. A row whose best link is its difference link at
// every branch node (a rejected row) is set against Π⁻ instead of Π.
func (a *arena) rescreen(u *flow.Usage, j int, next []float64) bool {
	c := &a.screen[j]
	c.s, a.falls[j] = 0, false
	sg := &a.x.Sub[j]
	phi, linkD := u.R.Phi[j], a.scratch.linkD
	outIdx, outEdges := sg.CSR()
	margin, falls := math.Inf(1), true
	for _, ln := range sg.Branch() {
		outs := outEdges[outIdx[ln]:outIdx[ln+1]]
		best, bestD, second := int32(-1), math.Inf(1), math.Inf(1)
		for _, le := range outs {
			d := linkD[le]
			if math.Float64bits(next[le]) != math.Float64bits(phi[le]) || math.IsNaN(d) {
				return false
			}
			// updateNode's choice: the first smallest marginal.
			if d < bestD {
				best, bestD, second = le, d, bestD
			} else if d < second {
				second = d
			}
		}
		if best < 0 || !(phi[best] > 0 && phi[best] <= math.MaxFloat64) {
			return false
		}
		for _, le := range outs {
			if le != best && math.Float64bits(phi[le]) != 0 {
				return false
			}
		}
		gap := second - bestD - screenGuard*(math.Abs(bestD)+math.Abs(second))
		if !(gap > 0) {
			return false
		}
		margin = min(margin, gap)
		falls = falls && best == sg.DiffLink
	}
	// Every φ ≥ 0 makes each node's ρ = Σ φ·d a nondecreasing function
	// of the node prices.
	for _, p := range phi {
		falls = falls && p >= 0
	}

	// Scaling by 1 − 2⁻⁵¹ rounds the sum down by at least one ulp.
	a.falls[j] = falls
	c.s = (a.driftOf(j) + margin/a.width(j)*(1-screenGuard)) * (1 - 0x1p-51)
	return true
}

// width returns W_j, computed at the row's first screening (in the
// scratch's rho, which the sweep and Γ are done with) and kept rounded
// up to a float32: a topology constant, and any upper bound keeps the
// screen safe. A row whose marginals no price reaches keeps the
// smallest float32 rather than 0, which marks a width not yet computed.
func (a *arena) width(j int) float64 {
	if wj := a.widths[j]; wj > 0 {
		return float64(wj)
	}
	sg := &a.x.Sub[j]
	outIdx, outEdges := sg.CSR()
	reach := a.scratch.rho
	for _, ln := range sg.RevTopo() {
		s := 0.0
		for _, le := range outEdges[outIdx[ln]:outIdx[ln+1]] {
			s = max(s, a.sensitivity(sg, reach, ln, le))
		}
		reach[ln] = s
	}
	wj := 0.0
	for _, ln := range sg.Branch() {
		v1, v2 := 0.0, 0.0
		for _, le := range outEdges[outIdx[ln]:outIdx[ln+1]] {
			if v := a.sensitivity(sg, reach, ln, le); v > v1 {
				v1, v2 = v, v1
			} else if v > v2 {
				v2 = v
			}
		}
		wj = max(wj, v1+v2)
	}
	w32 := max(float32(wj), math.SmallestNonzeroFloat32)
	if float64(w32) < wj {
		w32 = math.Nextafter32(w32, float32(math.Inf(1)))
	}
	a.widths[j] = w32
	return float64(w32)
}

// sensitivity is V(e) for member edge le out of local node ln, given S
// of every node downstream in reach.
func (a *arena) sensitivity(sg *transform.Subgraph, reach []float64, ln, le int32) float64 {
	v := sg.Beta[le] * reach[sg.Head[le]]
	if int(sg.Nodes[ln]) < a.x.SharedNodes {
		v += sg.Cost[le]
	}
	return v
}

// reuse is a screened row's part of the wave: a_j from the current
// measures into admitted, the row's usage into u — the one dummy-node
// term while it admits nothing, else its forecast again, which leaves
// T[j] as it was and adds the same terms in the same order — and the
// utility and utility-loss terms of its last sweep.
func (a *arena) reuse(u *flow.Usage, j int, next *flow.Routing, from, admitted []float64) (uj, yj float64) {
	c := &a.screen[j]
	admitted[j] = from[j]
	if from[j] == 0 {
		u.FNode[a.x.SharedNodes+j] = c.dummy
	} else {
		u.ForecastRow(next, j)
	}
	return c.u, c.y
}
