package gradient

import (
	"math"

	"repro/internal/flow"
	"repro/internal/transform"
)

// gamma performs the §5 routing update Γ (eqs. 14–17) for commodity j,
// writing the new routing variables of every node that has a choice
// into next, whose row the caller has seeded with the current one.
// tagged uses commodity j's local node indexing (nil: blocking off).
//
// At each node the fraction routed over every non-best unblocked link
// decreases by Δ = min(φ, η·a/t) where a is the link's marginal excess
// over the best link (eq. 15–16), and the total removed mass moves to
// the best link (eq. 17). When t_i(j) = 0 the step η·a/t is unbounded
// and the update shifts the full fraction — the limit Gallager's
// analysis prescribes (DESIGN.md §6).
//
// Only Subgraph.Branch nodes are visited. At a node with a single
// member out-edge the update is the identity: that edge is the best
// link and receives φ + 0, or — when it is blocked or its marginal is
// not finite — updateNode returns before writing; either way the
// seeded value stands. Nodes update independently (each reads the old
// row and writes only its own out-edges), so the visiting order is
// immaterial.
//
// prev, with mu > 0, is commodity j's φ_{k−1} row, and each node's
// proposal moves by heavyBall's term in the same pass.
func gamma(u *flow.Usage, j int, linkD []float64, tagged []bool, eta, mu float64, prev, next []float64) {
	sg := &u.R.X.Sub[j]
	phi, t := u.R.Phi[j], u.T[j]
	for _, ln := range sg.Branch() {
		outs := sg.Out(ln)
		updateNode(sg, phi, linkD, tagged, eta, next, outs, t[ln])
		if mu > 0 {
			heavyBall(phi, prev, mu, next, outs)
		}
	}
}

// heavyBall adds Polyak's heavy-ball term mu·(φ_k − φ_{k−1}) (prev
// holds φ_{k−1}) at one node's out-edges outs to Γ's proposal in next,
// projected back onto the node's simplex. A node whose proposal turns
// against its last step, ⟨Γ(φ_k) − φ_k, φ_k − φ_{k−1}⟩ < 0, restarts on
// Γ's proposal alone (O'Donoghue & Candès's gradient restart, applied
// per node).
func heavyBall(phi, prev []float64, mu float64, next []float64, outs []int32) {
	dot := 0.0
	for _, le := range outs {
		dot += (next[le] - phi[le]) * (phi[le] - prev[le])
	}
	if dot < 0 {
		return
	}
	for _, le := range outs {
		next[le] += mu * (phi[le] - prev[le])
	}
	project(next, outs)
}

// project replaces v's entries at idx by their Euclidean projection
// onto the simplex {x ≥ 0, Σx = Σ v[idx]} (Michelot 1986): zero the
// negative entries and take the mass that adds evenly from the
// positive ones, until none is negative. Every pass but the last zeroes
// at least one entry, so it ends; nonnegative input is left as it is.
func project(v []float64, idx []int32) {
	for {
		deficit, pos := 0.0, 0
		for _, i := range idx {
			switch x := v[i]; {
			case x < 0:
				deficit -= x
				v[i] = 0
			case x > 0:
				pos++
			}
		}
		if deficit == 0 {
			return
		}
		d := deficit / float64(pos)
		for _, i := range idx {
			if v[i] > 0 {
				v[i] -= d
			}
		}
	}
}

// updateNode applies Γ at one node: outs are its member out-edges, t
// its traffic t_i(j).
func updateNode(sg *transform.Subgraph, phi, linkD []float64, tagged []bool, eta float64, next []float64, outs []int32, t float64) {
	// Find the best (minimum-marginal) unblocked out-link; ties break
	// toward the lowest edge ID for determinism. A node k is blocked
	// (k ∈ B_i(j)) when φ_ik = 0 and k's broadcast was tagged.
	best := int32(-1)
	bestD := math.Inf(1)
	for _, le := range outs {
		if blocked(phi, sg, tagged, le) {
			continue
		}
		if d := linkD[le]; d < bestD {
			bestD = d
			best = le
		}
	}
	if best < 0 {
		return // node carries no commodity-j traffic options
	}

	moved := 0.0
	for _, le := range outs {
		if le == best {
			continue
		}
		if blocked(phi, sg, tagged, le) {
			next[le] = 0 // eq. 14
			continue
		}
		a := linkD[le] - bestD // eq. 15
		var delta float64
		if t > 0 {
			delta = math.Min(phi[le], eta*a/t) // eq. 16
		} else {
			delta = phi[le] // t → 0 limit: empty every non-best link
		}
		next[le] = phi[le] - delta
		moved += delta
	}
	next[best] = phi[best] + moved // eq. 17
}

// blocked reports whether member edge le's head is in the tail's
// blocked set: zero routing fraction and a tagged broadcast.
func blocked(phi []float64, sg *transform.Subgraph, tagged []bool, le int32) bool {
	if tagged == nil {
		return false
	}
	return phi[le] == 0 && tagged[sg.Head[le]]
}
