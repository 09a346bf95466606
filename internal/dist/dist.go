// Package dist executes the paper's §5 gradient algorithm as message-
// passing node actors on internal/simnet: the flow-forecast wave runs
// downstream from the dummy sources, the marginal-cost wave runs
// upstream from the sinks with loop-freedom tags piggybacked, and each
// node then updates its routing variables purely from local state.
//
// The mathematics is intentionally re-derived node-locally (not shared
// with internal/gradient); the test suite asserts the two produce the
// same trajectory, which cross-validates both implementations, while
// simnet provides measured message and round counts for §6's O(L)
// discussion.
package dist

import (
	"fmt"
	"math"

	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transform"
)

// flowMsg carries the forecast flow arriving at the head of edge E.
type flowMsg struct {
	J      int
	E      graph.EdgeID
	Amount float64 // t_tail·φ_E·β_E
}

// rhoMsg carries the head's marginal input cost back to the tail of
// edge E, with the loop-freedom tag piggybacked.
type rhoMsg struct {
	J      int
	E      graph.EdgeID
	Rho    float64
	Tagged bool
}

// commodityState is one node's per-commodity protocol state. Node
// actors know their incident member edges and those edges' parameters
// only — the node-local view the paper's protocol assumes.
type commodityState struct {
	outEdges []graph.EdgeID // member out-edges (ascending edge ID)
	inEdges  []graph.EdgeID // member in-edges (ascending edge ID)

	phi  map[graph.EdgeID]float64
	beta map[graph.EdgeID]float64 // β_e(j) per member out-edge
	cost map[graph.EdgeID]float64 // c_e(j) per member out-edge

	// Forecast-wave state (reset each iteration).
	t        float64
	flowRecv int
	fEdge    map[graph.EdgeID]float64

	// Marginal-wave state (reset each iteration).
	rho     float64
	rhoRecv int
	rhoIn   map[graph.EdgeID]float64
	tagIn   map[graph.EdgeID]bool
	tagged  bool
}

// nodeState is one actor.
type nodeState struct {
	id  graph.NodeID
	f   float64 // total resource usage this iteration (all commodities)
	per []commodityState
}

// Runtime drives iterations of the distributed protocol.
type Runtime struct {
	X   *transform.Extended
	cfg gradient.Config

	nodes      []*nodeState
	net        *simnet.Net
	iter       int
	maxLatency int // round-budget multiplier for jittered networks

	// Per-iteration protocol cost of the most recent Step.
	LastRounds   int
	LastMessages int
}

// New prepares the actors with the paper-faithful initial routing.
func New(x *transform.Extended, cfg gradient.Config) *Runtime {
	return NewFrom(x, flow.NewInitial(x), cfg)
}

// NewWithLatency prepares the actors on a network with per-message
// delivery delays (rounds; see simnet.NewWithLatency). maxLatency must
// bound the latency function's values; it scales the per-wave round
// budget. The §5 protocol's *results* are invariant to latencies —
// every node waits for all of its wave inputs — so only the measured
// round counts change (asserted in tests).
func NewWithLatency(x *transform.Extended, cfg gradient.Config, latency func(simnet.Message) int, maxLatency int) *Runtime {
	rt := NewFrom(x, flow.NewInitial(x), cfg)
	rt.net = simnet.NewWithLatency(rt.handle, latency)
	if maxLatency > 1 {
		rt.maxLatency = maxLatency
	}
	return rt
}

// NewFrom prepares the actors with an explicit routing set.
func NewFrom(x *transform.Extended, r *flow.Routing, cfg gradient.Config) *Runtime {
	if cfg.Eta <= 0 {
		cfg.Eta = 0.04
	}
	rt := &Runtime{X: x, cfg: cfg, nodes: make([]*nodeState, x.G.NumNodes()), maxLatency: 1}
	// Scatter each commodity's sparse member subgraph into per-node
	// incident-edge lists; ascending local edge index is ascending
	// global edge ID, so the per-node order matches the filtered scans
	// this replaced.
	nc := x.NumCommodities()
	outAdj := make([]map[graph.NodeID][]graph.EdgeID, nc)
	inAdj := make([]map[graph.NodeID][]graph.EdgeID, nc)
	for j := 0; j < nc; j++ {
		sg := &x.Sub[j]
		outAdj[j] = make(map[graph.NodeID][]graph.EdgeID)
		inAdj[j] = make(map[graph.NodeID][]graph.EdgeID)
		for le, e := range sg.Edges {
			tail, head := sg.Nodes[sg.Tail[le]], sg.Nodes[sg.Head[le]]
			outAdj[j][tail] = append(outAdj[j][tail], e)
			inAdj[j][head] = append(inAdj[j][head], e)
		}
	}
	for n := range rt.nodes {
		node := graph.NodeID(n)
		st := &nodeState{id: node, per: make([]commodityState, nc)}
		for j := range x.Commodities {
			cs := &st.per[j]
			cs.phi = make(map[graph.EdgeID]float64)
			cs.outEdges = outAdj[j][node]
			cs.inEdges = inAdj[j][node]
			cs.beta = make(map[graph.EdgeID]float64, len(cs.outEdges))
			cs.cost = make(map[graph.EdgeID]float64, len(cs.outEdges))
			for _, e := range cs.outEdges {
				le := x.Sub[j].LocalEdge(e)
				cs.phi[e] = r.Phi[j][le]
				cs.beta[e] = x.Sub[j].Beta[le]
				cs.cost[e] = x.Sub[j].Cost[le]
			}
			cs.fEdge = make(map[graph.EdgeID]float64, len(cs.outEdges))
			cs.rhoIn = make(map[graph.EdgeID]float64, len(cs.outEdges))
			cs.tagIn = make(map[graph.EdgeID]bool, len(cs.outEdges))
		}
		rt.nodes[n] = st
	}
	rt.net = simnet.New(rt.handle)
	return rt
}

// Routing snapshots the current routing variables into a flow.Routing.
func (rt *Runtime) Routing() *flow.Routing {
	r := flow.NewZero(rt.X)
	for _, st := range rt.nodes {
		for j := range st.per {
			for _, e := range st.per[j].outEdges {
				r.SetAt(j, e, st.per[j].phi[e])
			}
		}
	}
	return r
}

// Step runs one full protocol iteration and reports the pre-update
// measurements (identical semantics to gradient.Engine.Step).
func (rt *Runtime) Step() (gradient.StepInfo, error) {
	x := rt.X
	rec := rt.cfg.Recorder
	rounds0, msgs0 := rt.net.Rounds(), rt.net.Messages()

	// ---- Phase 1: flow-forecast wave (downstream) ----
	tf := rec.StartPhase(obs.PhaseForecast)
	for _, st := range rt.nodes {
		st.f = 0
		for j := range st.per {
			cs := &st.per[j]
			cs.t = 0
			cs.flowRecv = 0
			for _, e := range cs.outEdges {
				cs.fEdge[e] = 0
			}
		}
	}
	// Sources of the wave: nodes with no member in-edges. The dummy
	// node seeds t = λ (eq. 2); all others start at t = 0.
	for _, st := range rt.nodes {
		for j := range st.per {
			cs := &st.per[j]
			if len(cs.inEdges) > 0 {
				continue
			}
			if st.id == x.Commodities[j].Dummy {
				cs.t = x.Commodities[j].MaxRate
			}
			rt.emitFlow(st, j)
		}
	}
	maxRounds := 4 * (x.G.NumNodes() + 2) * rt.maxLatency
	if err := rt.net.RunToQuiescence(maxRounds); err != nil {
		return gradient.StepInfo{}, fmt.Errorf("dist: forecast wave: %w", err)
	}
	tf.Done()

	info := rt.measure()

	// ---- Phase 2: marginal-cost wave (upstream) ----
	tm := rec.StartPhase(obs.PhaseMarginal)
	for _, st := range rt.nodes {
		for j := range st.per {
			cs := &st.per[j]
			cs.rho = 0
			cs.rhoRecv = 0
			cs.tagged = false
		}
	}
	// Sinks start the wave with rho = 0 (and no tag).
	for j := range x.Commodities {
		sink := rt.nodes[x.Commodities[j].Sink]
		rt.emitRho(sink, j)
	}
	if err := rt.net.RunToQuiescence(maxRounds); err != nil {
		return gradient.StepInfo{}, fmt.Errorf("dist: marginal wave: %w", err)
	}
	tm.Done()

	// ---- Phase 3: local routing update Γ ----
	tu := rec.StartPhase(obs.PhaseUpdate)
	for _, st := range rt.nodes {
		for j := range st.per {
			if st.id != x.Commodities[j].Sink {
				rt.updateNode(st, j)
			}
		}
	}
	tu.Done()

	rt.LastRounds = rt.net.Rounds() - rounds0
	rt.LastMessages = rt.net.Messages() - msgs0
	info.Iteration = rt.iter
	rt.iter++
	rec.Iteration("gradient-dist", info.Iteration, info.Utility, info.Cost, info.Admitted, info.Feasible)
	rec.Protocol("gradient-dist", info.Iteration, rt.LastMessages, rt.LastRounds)
	return info, nil
}

// handle dispatches a delivered message to the destination actor.
func (rt *Runtime) handle(msg simnet.Message, send func(to graph.NodeID, payload any)) {
	st := rt.nodes[msg.To]
	switch m := msg.Payload.(type) {
	case flowMsg:
		cs := &st.per[m.J]
		cs.t += m.Amount
		cs.flowRecv++
		if cs.flowRecv == len(cs.inEdges) {
			rt.emitFlowSend(st, m.J, send)
		}
	case rhoMsg:
		cs := &st.per[m.J]
		cs.rhoIn[m.E] = m.Rho
		cs.tagIn[m.E] = m.Tagged
		cs.rhoRecv++
		if cs.rhoRecv == len(cs.outEdges) {
			rt.computeRho(st, m.J)
			rt.emitRhoSend(st, m.J, send)
		}
	default:
		panic(fmt.Sprintf("dist: unknown payload %T", msg.Payload))
	}
}

// emitFlow forwards the node's commodity-j traffic via driver injection
// (used for wave sources, which receive no triggering message).
func (rt *Runtime) emitFlow(st *nodeState, j int) {
	rt.emitFlowSend(st, j, func(to graph.NodeID, payload any) {
		rt.net.Inject(st.id, to, payload)
	})
}

// emitFlowSend computes local usage and forwards flow on every member
// out-edge (eq. 3 and 4, node-locally).
func (rt *Runtime) emitFlowSend(st *nodeState, j int, send func(to graph.NodeID, payload any)) {
	x := rt.X
	if st.id == x.Commodities[j].Sink {
		return // sinks absorb
	}
	cs := &st.per[j]
	for _, e := range cs.outEdges {
		phi := cs.phi[e]
		fe := cs.t * phi * cs.cost[e]
		cs.fEdge[e] = fe
		st.f += fe
		send(x.G.Edge(e).To, flowMsg{J: j, E: e, Amount: cs.t * phi * cs.beta[e]})
	}
}

// emitRho starts the upstream wave at a sink via driver injection.
func (rt *Runtime) emitRho(st *nodeState, j int) {
	rt.emitRhoSend(st, j, func(to graph.NodeID, payload any) {
		rt.net.Inject(st.id, to, payload)
	})
}

// emitRhoSend broadcasts the node's rho and tag to every member
// in-edge tail.
func (rt *Runtime) emitRhoSend(st *nodeState, j int, send func(to graph.NodeID, payload any)) {
	cs := &st.per[j]
	for _, e := range cs.inEdges {
		send(rt.X.G.Edge(e).From, rhoMsg{J: j, E: e, Rho: cs.rho, Tagged: cs.tagged})
	}
}

// linkD is the per-link marginal of eq. 10/13 from local state:
// (ε·D'_i(f_i) + Y'_e)·c_e + β_e·rho_head.
func (rt *Runtime) linkD(st *nodeState, j int, e graph.EdgeID) float64 {
	x := rt.X
	cs := &st.per[j]
	dAdf := x.PenaltyDeriv(st.id, st.f) + x.LossDeriv(j, e, cs.fEdge[e])
	return dAdf*cs.cost[e] + cs.beta[e]*cs.rhoIn[e]
}

// computeRho evaluates eq. 9 and the §5 tag condition from received
// downstream values.
func (rt *Runtime) computeRho(st *nodeState, j int) {
	cs := &st.per[j]
	rho := 0.0
	for _, e := range cs.outEdges {
		rho += cs.phi[e] * rt.linkD(st, j, e)
	}
	cs.rho = rho
	for _, e := range cs.outEdges {
		if cs.phi[e] <= 0 {
			continue
		}
		if cs.tagIn[e] {
			cs.tagged = true
			break
		}
		// Scale-corrected improper-link test (see gradient's tagNode):
		// compare marginal costs per source unit.
		if cs.rho > cs.beta[e]*cs.rhoIn[e] || cs.t == 0 {
			continue
		}
		if cs.phi[e] >= rt.cfg.Eta/cs.t*(rt.linkD(st, j, e)-cs.rho) {
			cs.tagged = true
			break
		}
	}
	if rt.cfg.DisableBlocking {
		cs.tagged = false
	}
}

// updateNode applies Γ (eqs. 14–17) from purely local state.
func (rt *Runtime) updateNode(st *nodeState, j int) {
	cs := &st.per[j]
	blocked := func(e graph.EdgeID) bool {
		return !rt.cfg.DisableBlocking && cs.phi[e] == 0 && cs.tagIn[e]
	}
	best := graph.EdgeID(graph.Invalid)
	bestD := math.Inf(1)
	for _, e := range cs.outEdges {
		if blocked(e) {
			continue
		}
		if d := rt.linkD(st, j, e); d < bestD {
			bestD = d
			best = e
		}
	}
	if best == graph.Invalid {
		return
	}
	moved := 0.0
	for _, e := range cs.outEdges {
		if e == best {
			continue
		}
		if blocked(e) {
			cs.phi[e] = 0
			continue
		}
		a := rt.linkD(st, j, e) - bestD
		var delta float64
		if cs.t > 0 {
			delta = math.Min(cs.phi[e], rt.cfg.Eta*a/cs.t)
		} else {
			delta = cs.phi[e]
		}
		cs.phi[e] -= delta
		moved += delta
	}
	cs.phi[best] += moved
}

// measure assembles the StepInfo from node-local state only.
func (rt *Runtime) measure() gradient.StepInfo {
	x := rt.X
	info := gradient.StepInfo{
		Admitted: make([]float64, x.NumCommodities()),
		Feasible: true,
	}
	for j := range x.Commodities {
		c := &x.Commodities[j]
		dummy := rt.nodes[c.Dummy]
		a := c.MaxRate * dummy.per[j].phi[c.InputLink]
		info.Admitted[j] = a
		info.Utility += c.Utility.Value(a)
		info.Cost += x.LossValue(j, c.DiffLink, dummy.per[j].fEdge[c.DiffLink])
	}
	for _, st := range rt.nodes {
		info.Cost += x.PenaltyValue(st.id, st.f)
		if capn := x.Capacity[st.id]; !math.IsInf(capn, 1) && st.f > capn+1e-9 {
			info.Feasible = false
		}
	}
	return info
}
