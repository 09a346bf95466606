package gradient

import (
	"math"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/transform"
)

// refModel is the §5 step written out line by line, test-side: the one
// reference the parity tests step the engine against (lockstep,
// parity_test.go). It calls none of the engine's iteration code — its
// wave, tags, Γ, momentum, projection or node pass — and allocates
// freely. Every step forecasts its routing afresh (flow.Evaluate),
// prices every node with transform.Extended.ShadowPrice at its load
// f + ext, and per commodity runs the eq.-9 wave with the messages and
// rounds the distributed protocol spends, the eq.-18 tags when they are
// on, Γ (eqs. 14–17) at every non-sink node and, while the last step
// was kept, the heavy-ball term. At fixed η the proposal is the next
// routing; under Config.Backtrack a second fresh forecast judges it by
// its cost A.
type refModel struct {
	x   *transform.Extended
	ext []float64 // the other shards' flow per shared node, read at every step
	cfg Config

	r     *flow.Routing
	u     *flow.Usage   // r's forecast, once made
	prev  *flow.Routing // the routing kept before r, while heavy
	heavy bool

	eta                        float64
	iter, descents, backtracks int
	stats                      Stats

	// last is what the last step saw and proposed.
	last refPass
	// Heavy-ball node updates that took the term, that restarted and
	// that the projection clipped, over the model's life.
	pushed, restarted, clipped int
}

// refPass is what one step of the model saw: the forecast and node
// prices it started from, the η it stepped with, each commodity's wave,
// and the routing it proposed.
type refPass struct {
	u     *flow.Usage
	price []float64
	eta   float64
	rows  []refRow
	next  *flow.Routing
}

// refRow is one commodity's wave: ρ per local node, the link marginals
// per local edge, the tags (nil with the tags off), the messages and the
// rounds the protocol spends on it, and the nodes Γ wrote at.
type refRow struct {
	rho, linkD      []float64
	tagged, wrote   []bool
	messages, depth int
}

// newRefModel starts the model at r, which it takes over.
func newRefModel(x *transform.Extended, ext []float64, cfg Config, r *flow.Routing) *refModel {
	eta := cfg.Eta
	if eta <= 0 {
		eta = 0.04
	}
	return &refModel{x: x, ext: ext, cfg: cfg, r: r, eta: eta}
}

// usage is the fresh forecast of the model's routing.
func (m *refModel) usage() *flow.Usage {
	if m.u == nil {
		m.u = flow.Evaluate(m.r)
	}
	return m.u
}

// step runs one iteration and returns the measurements of the routing
// it started from.
func (m *refModel) step() StepInfo {
	x, u := m.x, m.usage()
	price := refPrices(u, m.ext)
	info := StepInfo{Iteration: m.iter, Utility: u.Utility(), Cost: refCost(u, m.ext), Feasible: refFeasible(u, m.ext)}
	next := m.r.Clone()
	m.last = refPass{u: u, price: price, eta: m.eta, rows: make([]refRow, len(x.Sub)), next: next}
	messages, rounds := 0, 0
	for j := range x.Sub {
		row := refRho(u, price, j)
		if !m.cfg.DisableBlocking {
			row.tagged = refTags(u, j, &row, m.eta)
		}
		row.wrote = refGamma(u, j, &row, m.eta, next.Phi[j])
		if m.heavy {
			m.momentum(j, next.Phi[j])
		}
		messages += row.messages
		rounds = max(rounds, row.depth)
		m.last.rows[j] = row
	}
	// The forecast wave runs the marginal wave's edges downstream: as
	// many messages, as many rounds.
	m.stats.Iterations++
	m.stats.Messages += 2 * messages
	m.stats.Rounds += 2 * rounds
	m.iter++
	if !m.cfg.Backtrack {
		m.keep(next, nil)
		return info
	}
	// Step control: keep a proposal that does not raise A, grow η by 5%
	// after 20 kept steps in a row (up to 1), halve it on a rejection
	// (down to 1e-5).
	proposed := flow.Evaluate(next)
	if refCost(proposed, m.ext) <= info.Cost+1e-12 {
		m.keep(next, proposed)
		if m.descents++; m.descents >= 20 {
			m.descents = 0
			if m.eta*1.05 <= 1 {
				m.eta *= 1.05
			}
		}
	} else {
		m.heavy = false
		m.backtracks++
		m.descents = 0
		if m.eta*0.5 >= 1e-5 {
			m.eta *= 0.5
		}
	}
	return info
}

// keep makes next, whose forecast is u (nil: not made), the routing.
func (m *refModel) keep(next *flow.Routing, u *flow.Usage) {
	m.prev, m.r, m.u = m.r, next, u
	m.heavy = m.cfg.Momentum > 0
}

// restart is Engine.Restart's effect after x was reparameterized in
// place: the routing and η stay; the forecast, the counters and the
// momentum start again.
func (m *refModel) restart() {
	m.u, m.heavy = nil, false
	m.iter, m.descents, m.backtracks = 0, 0, 0
	m.stats = Stats{}
}

// refRho is commodity j's marginal-cost wave (eq. 9) on the forecast
// u at the node prices price. From the sink upstream, each node waits
// for the ρ of every head of its member out-edges and sends one message
// per out-edge, one round after its deepest head. The link marginal of
// edge e = (i, k) is ∂A_i/∂f_e·c_e + β_e·ρ_k (eqs. 10 and 13), where
// ∂A_i/∂f_e is i's price plus, on the difference link, U'_j(λ_j − f_e)
// (eq. 11); ρ_i is Σ_e φ_e times it, and 0 at the sink.
func refRho(u *flow.Usage, price []float64, j int) refRow {
	x := u.R.X
	sg := &x.Sub[j]
	phi := u.R.Phi[j]
	buf := make([]float64, sg.NumNodes()+sg.NumEdges())
	row := refRow{rho: buf[:sg.NumNodes()], linkD: buf[sg.NumNodes():]}
	depth := make([]int, sg.NumNodes())
	for k := len(sg.Topo) - 1; k >= 0; k-- {
		ln := sg.Topo[k]
		if ln == sg.Sink {
			continue
		}
		for _, le := range sg.Out(ln) {
			head := sg.Head[le]
			var loss float64
			if le == sg.DiffLink {
				loss = x.Commodities[j].Loss.Deriv(u.EdgeFlow(j, le))
			}
			d := (price[sg.Nodes[ln]]+loss)*sg.Cost[le] + sg.Beta[le]*row.rho[head]
			row.linkD[le] = d
			row.rho[ln] += phi[le] * d
			row.messages++
			depth[ln] = max(depth[ln], depth[head]+1)
		}
		row.depth = max(row.depth, depth[ln])
	}
	return row
}

// refTags is the eq.-18 tagging protocol on commodity j's wave: node l
// tags its broadcast when a head it routes to (φ > 0) is tagged, or
// when such a link is improper per source unit (ρ_l ≤ β·ρ_m, DESIGN.md
// §6's reading of the test under shrinkage) and survives the update:
// t > 0 and φ ≥ η/t·(d − ρ_l).
func refTags(u *flow.Usage, j int, row *refRow, eta float64) []bool {
	sg := &u.R.X.Sub[j]
	phi, t := u.R.Phi[j], u.T[j]
	tagged := make([]bool, sg.NumNodes())
	for k := len(sg.Topo) - 1; k >= 0; k-- {
		l := sg.Topo[k]
		for _, le := range sg.Out(l) {
			m := sg.Head[le]
			if phi[le] <= 0 {
				continue
			}
			if tagged[m] || !(row.rho[l] > sg.Beta[le]*row.rho[m]) && t[l] != 0 && phi[le] >= eta/t[l]*(row.linkD[le]-row.rho[l]) {
				tagged[l] = true
				break
			}
		}
	}
	return tagged
}

// refGamma is Γ for commodity j at every non-sink node, written into
// next, which holds the current row: each unblocked link but the best
// (the first smallest marginal) gives up Δ = min(φ, η·a/t), a its
// marginal's excess over the best (eqs. 15–16), or all of φ at t = 0,
// a blocked link (φ = 0 toward a tagged head) stays at 0 (eq. 14), and
// the best link takes what the others gave up (eq. 17). It returns the
// nodes it wrote at, per local node: those with an unblocked link of
// finite marginal.
func refGamma(u *flow.Usage, j int, row *refRow, eta float64, next []float64) (wrote []bool) {
	sg := &u.R.X.Sub[j]
	phi, t := u.R.Phi[j], u.T[j]
	blocked := func(le int32) bool {
		return row.tagged != nil && phi[le] == 0 && row.tagged[sg.Head[le]]
	}
	wrote = make([]bool, sg.NumNodes())
	for _, ln := range sg.Topo {
		outs := sg.Out(ln)
		best, bestD := int32(-1), math.Inf(1)
		for _, le := range outs {
			if !blocked(le) && row.linkD[le] < bestD {
				best, bestD = le, row.linkD[le]
			}
		}
		if best < 0 {
			continue
		}
		wrote[ln] = true
		moved := 0.0
		for _, le := range outs {
			switch {
			case le == best:
			case blocked(le):
				next[le] = 0
			default:
				delta := phi[le]
				if t[ln] > 0 {
					delta = math.Min(phi[le], eta*(row.linkD[le]-bestD)/t[ln])
				}
				next[le] = phi[le] - delta
				moved += delta
			}
		}
		next[best] = phi[best] + moved
	}
	return wrote
}

// momentum adds the heavy-ball term μ·(φ_k − φ_{k−1}) to commodity j's
// Γ row next at every node with two or more member out-edges whose Γ
// step does not turn against its last one, then projects that node's
// out-edges back onto their simplex.
func (m *refModel) momentum(j int, next []float64) {
	sg := &m.x.Sub[j]
	phi, prev := m.r.Phi[j], m.prev.Phi[j]
	for _, ln := range sg.Topo {
		outs := sg.Out(ln)
		if len(outs) < 2 {
			continue
		}
		turn := 0.0
		for _, le := range outs {
			turn += (next[le] - phi[le]) * (phi[le] - prev[le])
		}
		if turn < 0 {
			m.restarted++
			continue
		}
		m.pushed++
		for _, le := range outs {
			next[le] += m.cfg.Momentum * (phi[le] - prev[le])
		}
		if refProject(next, outs) {
			m.clipped++
		}
	}
}

// refProject is the simplex projection written over explicit index
// sets: negatives out of the set, their mass taken evenly from the
// members left, until the set stops shrinking. It reports whether it
// clipped anything.
func refProject(v []float64, outs []int32) (clipped bool) {
	set := append([]int32(nil), outs...)
	for {
		var keep []int32
		lost := 0.0
		for _, i := range set {
			if v[i] < 0 {
				lost += -v[i]
				v[i] = 0
			} else if v[i] > 0 {
				keep = append(keep, i)
			}
		}
		if lost == 0 {
			return clipped
		}
		clipped = true
		for _, i := range keep {
			v[i] -= lost / float64(len(keep))
		}
		set = keep
	}
}

// refLoad is node n's load at u plus ext: f_n + ext_n.
func refLoad(u *flow.Usage, ext []float64, n int) float64 {
	f := u.FNode[n]
	if n < len(ext) {
		f += ext[n]
	}
	return f
}

// refPrices prices every extended node at u plus ext with ShadowPrice:
// ε·D'_n(f_n + ext_n), 0 at an uncapacitated node and past the shared
// prefix.
func refPrices(u *flow.Usage, ext []float64) []float64 {
	x := u.R.X
	price := make([]float64, len(u.FNode))
	for n := range x.SharedNodes {
		price[n] = x.ShadowPrice(graph.NodeID(n), refLoad(u, ext, n))
	}
	return price
}

// refCost is A = Y + Σ_i ε·D_i(f_i + ext_i), Usage.TotalCost at u plus
// ext.
func refCost(u *flow.Usage, ext []float64) float64 {
	x := u.R.X
	penalty := 0.0
	for n := range x.SharedNodes {
		penalty += x.PenaltyValue(graph.NodeID(n), refLoad(u, ext, n))
	}
	return u.UtilityLoss() + penalty
}

// refFeasible is Usage.Feasible at u plus ext.
func refFeasible(u *flow.Usage, ext []float64) bool {
	load := make([]float64, u.R.X.SharedNodes)
	for n := range load {
		load[n] = refLoad(u, ext, n)
	}
	ok, _ := flow.FeasibleShared(u.R.X, load)
	return ok
}

// refStationarity is eq. 12's gap at u plus ext, as CheckStationarity
// defines it: over each commodity's wave at refPrices, the largest
// (d_e − min d)/(1 + min d) over links with φ_e > MinPhi out of nodes
// with t > MinTraffic whose smallest marginal is finite. A NaN gap
// raises nothing.
func refStationarity(u *flow.Usage, ext []float64) float64 {
	price := refPrices(u, ext)
	gap := 0.0
	for j := range u.R.X.Sub {
		sg := &u.R.X.Sub[j]
		row := refRho(u, price, j)
		for ln := range int32(sg.NumNodes()) {
			if ln == sg.Sink || u.T[j][ln] <= MinTraffic {
				continue
			}
			minD := math.Inf(1)
			for _, le := range sg.Out(ln) {
				if row.linkD[le] < minD {
					minD = row.linkD[le]
				}
			}
			if math.IsInf(minD, 1) {
				continue
			}
			for _, le := range sg.Out(ln) {
				if g := (row.linkD[le] - minD) / (1 + minD); u.R.Phi[j][le] > MinPhi && g > gap {
					gap = g
				}
			}
		}
	}
	return gap
}
