package gradient

import (
	"repro/internal/flow"
	"repro/internal/transform"
	"repro/internal/utility"
)

// waveScratch holds the buffers for the sweep→update chain of one
// commodity at a time, sized for the largest member subgraph. Nothing
// in it outlives the commodity it was filled for — the chain's only
// per-commodity output is the new φ row — so the wave reuses the same
// few cache lines for every commodity it runs.
type waveScratch struct {
	rho    []float64
	linkD  []float64
	tagged []bool
	// prev holds the commodity's φ_{k−1} entries at its branch nodes'
	// out-edges while the wave adds the heavy-ball term (mu > 0): the
	// engine's spare routing holds them on entry, and seeding the new
	// row overwrites them.
	prev []float64
}

// arena owns one engine's §5 wave workspaces. The paper's protocol
// phases are independent across commodities — each commodity's
// marginal-cost wave and update read only its own usage row and the
// node prices and write only its own φ row — so one workspace serves
// every commodity in turn.
type arena struct {
	x *transform.Extended
	// ext is the flow other shards route through each shared node,
	// installed by Engine.SetExternal and read, not copied: nil (or
	// all zero) for a lone build. Every price and cost the arena takes
	// is at f + ext.
	ext []float64
	// price is ε·D'_n at the global operating point per extended node,
	// zero at every uncapacitated one: the node pass (evaluate) writes
	// it, and is its only writer.
	price   []float64
	scratch waveScratch

	// The node pass's bitset over the shared nodes (evaluate): the
	// nodes with a finite capacity, the only ones priced. unscreen
	// rebuilds it.
	capped []uint64

	// The screen of the serving step (screen.go), nil in the paper
	// mode: per row its state, its width W_j (0 until first needed) and
	// whether only a price fall can expire it (falls), and the running
	// sums over node passes, rounded up, of the largest price change,
	// drift (Π), and of the largest price fall, fall (Π⁻).
	screen []rowScreen
	widths []float32
	falls  []bool
	drift  float64
	fall   float64

	// messages and rounds are what one marginal-cost wave costs the
	// distributed protocol: one ρ broadcast per member edge, and as many
	// sequential rounds as the deepest member DAG. Topology constants.
	messages, rounds int
}

// newArena sizes the sweeps' rho and linkD for x (newEngine adds the
// wave's tagged and prev as its config needs them), and the screen too
// when screened is set (the serving mode).
func newArena(x *transform.Extended, screened bool) *arena {
	a := &arena{x: x, price: make([]float64, x.NumNodes())}
	maxN, maxE := 0, 0
	for j := range x.Sub {
		sg := &x.Sub[j]
		maxN, maxE = max(maxN, sg.NumNodes()), max(maxE, sg.NumEdges())
		a.messages += sg.NumEdges()
		a.rounds = max(a.rounds, sg.Depth())
	}
	a.scratch = waveScratch{rho: make([]float64, maxN), linkD: make([]float64, maxE)}
	if screened {
		a.screen = make([]rowScreen, len(x.Sub))
		a.widths = make([]float32, len(x.Sub))
		a.falls = make([]bool, len(x.Sub))
	}
	a.capped = make([]uint64, (x.SharedNodes+63)/64)
	a.indexCapped()
	return a
}

// runWave is one iteration's pass over the commodities against the
// evaluated usage u, whose node prices a.price holds. For each
// commodity j, in order, it runs the marginal-cost sweep with the
// loop-freedom tags (when blocking is true), the routing update Γ into
// next's row j — plus, with mu > 0, the heavy-ball term
// mu·(φ_k − φ_{k−1}), for which next must hold φ_{k−1} on entry — and
// then the flow forecast of that new row into u itself: T[j] is
// overwritten only once row j's sweep and Γ have read it, and FNode,
// which the sweep never reads (the prices already summarize it), is
// cleared before the first row. The same visit writes the new row's
// admitted rate into admitted and adds its utility and utility-loss
// terms, in commodity order, to the sums it returns. On return u is
// the forecast of next (u.R is next) and one node pass (evaluate)
// judges it.
//
// next must equal u.R at every entry outside a branch node's
// out-edges: Γ writes only those (see gamma). In the serving mode a
// row the screen skips (screen.go), or one update re-screens from its
// sweep, is not updated: next already holds it, from holds its
// admitted rate (u.R's measures), and reuse adds what its visit would
// have added.
func (a *arena) runWave(u *flow.Usage, eta, mu float64, blocking bool, next *flow.Routing, from, admitted []float64) (utility, loss float64) {
	clear(u.FNode)
	for j := range a.x.Sub {
		var uj, yj float64
		if a.screen != nil && a.skips(j) || a.update(u, j, eta, mu, blocking, next) {
			uj, yj = a.reuse(u, j, next, from, admitted)
		} else {
			u.ForecastRow(next, j)
			uj, yj = a.measure(u, next, j, admitted)
		}
		utility, loss = utility+uj, loss+yj
	}
	u.R = next
	return utility, loss
}

// update runs commodity j's sweep and Γ in the arena's scratch,
// writing the new φ row into next, and in the serving mode the row's
// new screen bound. A row whose screen expired while it was screened
// is re-screened from its sweep first: if it still sits at its vertex
// (rescreen of its current row), Γ would return it bit for bit — its
// spare row is R's, so the heavy-ball term is 0 — and update reports
// true without running Γ. Otherwise Γ runs on that sweep's marginals
// and the row stays unscreened: rescreen of Γ's proposal checks the
// current row as the failed check did, and more.
func (a *arena) update(u *flow.Usage, j int, eta, mu float64, blocking bool, next *flow.Routing) (kept bool) {
	w := &a.scratch
	var tagged []bool
	if blocking {
		tagged = w.tagged
	}
	sweep(u, j, a.price, w.rho, w.linkD, tagged, eta)
	expired := a.screen != nil && a.screen[j].s != 0
	if expired && a.rescreen(u, j, u.R.Phi[j]) {
		return true
	}
	gamma(u, j, w.linkD, tagged, eta, mu, w.prev, next.Phi[j])
	if a.screen != nil && !expired {
		a.rescreen(u, j, next.Phi[j])
	}
	return false
}

// measure is measureRow for the wave's swept row j, whose new forecast
// u holds. In the serving mode it also keeps what reuse needs of the
// row: its two terms and the usage its forecast left at its dummy node.
func (a *arena) measure(u *flow.Usage, r *flow.Routing, j int, admitted []float64) (uj, yj float64) {
	uj, yj = measureRow(u, r, j, admitted)
	if a.screen != nil {
		c := &a.screen[j]
		c.u, c.y, c.dummy = uj, yj, u.FNode[a.x.SharedNodes+j]
	}
	return uj, yj
}

// measureRow measures routing r's commodity j, whose forecast u.T[j]
// holds: a_j into admitted[j], and its terms of a measurement, U_j(a_j)
// and Y_j(λ_j − a_j) — the operands Usage.Utility and
// Usage.UtilityLoss add, so sums over j in order are theirs bit for
// bit. Each term is rounded on its own (the conversions), so a sum that
// adds a recorded term gets the bits it would have got from the call. A
// Linear utility, the family of the paper's §6 throughput objective, is
// called on its concrete type (the same doubles, without three
// interface calls); every other family goes through the interface.
func measureRow(u *flow.Usage, r *flow.Routing, j int, admitted []float64) (uj, yj float64) {
	a := r.AdmittedRate(j)
	admitted[j] = a
	c := &r.X.Commodities[j]
	if lin, ok := c.Utility.(utility.Linear); ok {
		return float64(lin.Value(a)), float64(c.Loss.LinearValue(lin, u.DiffFlow(r, j)))
	}
	return c.Utility.Value(a), u.RowLoss(r, j)
}
