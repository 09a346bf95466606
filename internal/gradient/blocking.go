package gradient

// tagNode evaluates the §5 loop-freedom tagging protocol at one node l
// of one commodity, given its member out-edges and the values its
// heads have already broadcast: node l attaches a tag to its rho
// broadcast when it has a downstream link (l,m) (φ_lm(j) > 0) that is
// *improper* (∂A/∂r_l ≤ ∂A/∂r_m) and will not be emptied this
// iteration (condition 18), or when any downstream neighbor's broadcast
// was already tagged. The update Γ then refuses to raise φ_ik(j) from
// zero toward any tagged node k (the blocked set B_i(j)).
//
// One deliberate deviation from the text (documented in DESIGN.md §6):
// the paper prints the improper-link test as ∂A/∂r_l ≤ ∂A/∂r_m,
// verbatim from Gallager's conservation setting. Marginal input costs
// are *per local unit*, so under shrinkage (β_lm < 1) the raw
// comparison fires at perfectly proper links — rho_l ≈ c + β·rho_m can
// sit below rho_m forever — and the resulting permanent tags fence
// whole subgraphs off from the update, pinning the iteration at badly
// suboptimal points (≈60% of optimal on deep instances; see
// TestBlockingScaleCorrectness). Comparing costs per *source* unit,
// g_l·rho_l ≤ g_m·rho_m ⇔ rho_l ≤ β_lm·rho_m, restores Gallager's
// meaning and reduces to his condition exactly when β = 1.
//
// In this system every commodity's member subgraph is a DAG, so loops
// cannot form even without blocking; the protocol is implemented
// faithfully anyway, and Config.DisableBlocking ablates it
// (TestBlockingAblationSameOptimumOnDAG).
//
// rhoL and t are the node's own ρ and traffic; phi, beta, head, linkD
// are indexed by local edge, rho and tagged by local node.
func tagNode(outs []int32, phi, beta []float64, head []int32, rho, linkD []float64, tagged []bool, rhoL, t, eta float64) bool {
	for _, le := range outs {
		if phi[le] <= 0 {
			continue
		}
		h := head[le]
		if tagged[h] {
			return true
		}
		// Improper link: routing positive fraction toward a node whose
		// marginal cost per source unit is no better than ours (the β
		// factor converts both sides to source units; see above).
		if rhoL > beta[le]*rho[h] {
			continue
		}
		// Condition (18): the improper link survives this iteration's
		// update. With t = 0 the update empties every non-best link
		// outright, so nothing survives.
		if t == 0 {
			continue
		}
		if phi[le] >= eta/t*(linkD[le]-rhoL) {
			return true
		}
	}
	return false
}
