// Package backpressure implements the baseline algorithm the paper
// compares against in §6: the buffer/potential-based local-control
// scheme of the authors' earlier work (ref. [6], an Awerbuch–Leighton
// style multicommodity-flow algorithm generalized to stream processing
// with shrinkage).
//
// Reference [6] is summarized but not fully specified in this paper;
// this reconstruction matches every property §6 states (see DESIGN.md
// §6 "Back-pressure reconstruction"):
//
//   - each node maintains local buffers per commodity and a potential
//     function over buffer levels;
//   - each iteration a node only learns its neighbors' buffer levels —
//     O(1) message exchanges, all nodes in parallel;
//   - the node then allocates its resource to the transfers that reduce
//     the potential the most;
//   - the long-run delivered rate approaches the optimum, but orders of
//     magnitude more slowly than the gradient algorithm.
//
// The algorithm runs on the extended graph (single resource per node)
// with the dummy difference links excluded: admission control comes
// from a capped source buffer whose overflow is dropped, not from
// explicit rejection routing. Buffers and transfer scans use each
// commodity's Subgraph local indexing, with a per-node inverted list of
// (commodity, local node) pairs standing in for the old dense
// member-adjacency scans.
package backpressure

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/transform"
)

// Config tunes the baseline.
type Config struct {
	// BufferCap bounds every source (dummy) buffer; arrivals beyond it
	// are dropped — this is the admission control. Sustaining a rate r
	// across an L-hop path against damped transfers needs queue
	// differentials summing to ~r·L/Damping, so the cap must scale
	// with L/ε (the classic Awerbuch–Leighton trade-off). The default
	// 1600·L makes the long-run plateau clear 95%-of-optimal on the §6
	// instances at the cost of the slow convergence Figure 4 shows.
	BufferCap float64
	// Damping scales every balancing transfer. The Awerbuch–Leighton
	// analysis moves only a Θ(1/L) share of each queue imbalance per
	// round (L = longest path) to keep the potential argument sound
	// under contention; the default 1/(2·L) follows that scaling and
	// is what makes the baseline need the ~100× more iterations §6
	// reports. Set to 1 for the undamped greedy variant.
	Damping float64
}

func (c *Config) setDefaults(x *transform.Extended) {
	depth := 1
	for j := range x.Commodities {
		if l := x.Sub[j].Depth(); l > depth {
			depth = l
		}
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 1600 * float64(depth)
	}
	if c.Damping <= 0 {
		c.Damping = 1 / float64(2*depth)
	}
}

// StepInfo measures one iteration.
type StepInfo struct {
	Iteration int
	// Delivered[j] is the commodity-j flow delivered to its sink this
	// iteration, converted to source units (divided by g_sink).
	Delivered []float64
	// Cumulative is the paper's "Cumulative System Utility": the
	// weighted delivered volume so far divided by elapsed iterations.
	Cumulative float64
	// Messages is the neighbor buffer-level exchanges this iteration.
	Messages int
}

// visit is one entry of a node's inverted member list: commodity j is
// present at this node with local node index ln in X.Sub[j].
type visit struct {
	j  int32
	ln int32
}

// Engine is the back-pressure runtime.
type Engine struct {
	X   *transform.Extended
	cfg Config

	// q[j][ln]: commodity-j buffer at member node ln (X.Sub[j] local
	// indexing), in node-local input units.
	q [][]float64
	// at[n] lists the commodities present at extended node n in
	// ascending commodity order, so a per-node scan visits (j asc,
	// member out-edge asc) — the same order as the old dense scan.
	at [][]visit
	// gSink[j] converts sink-unit arrivals back to source units.
	gSink []float64
	// weight[j] values one source unit of commodity j (U'_j(0); exact
	// for the linear utilities §6 uses).
	weight []float64

	iter           int
	totalDelivered []float64 // source units per commodity
}

// New prepares a back-pressure engine.
func New(x *transform.Extended, cfg Config) *Engine {
	cfg.setDefaults(x)
	nc := x.NumCommodities()
	e := &Engine{
		X:              x,
		cfg:            cfg,
		q:              make([][]float64, nc),
		at:             make([][]visit, x.NumNodes()),
		gSink:          make([]float64, nc),
		weight:         make([]float64, nc),
		totalDelivered: make([]float64, nc),
	}
	for j := 0; j < nc; j++ {
		sg := &x.Sub[j]
		e.q[j] = make([]float64, sg.NumNodes())
		for ln, n := range sg.Nodes {
			e.at[n] = append(e.at[n], visit{j: int32(j), ln: int32(ln)})
		}
		e.gSink[j] = sg.SinkPotential()
		e.weight[j] = x.Commodities[j].Utility.Deriv(0)
	}
	return e
}

// transfer is one candidate (commodity, edge) move considered by a
// node's local allocation.
type transfer struct {
	j  int32
	le int32        // local edge index in X.Sub[j]
	e  graph.EdgeID // global edge ID, for deterministic tie-breaks
	// gain is the potential decrease per unit of node resource spent:
	// (q_tail − β·q_head)/c under the quadratic potential Σ q²/2.
	gain float64
	// want is the potential-minimizing transfer along this edge in
	// isolation: arg min over x of the quadratic potential change
	// −q_t·x + β·q_h·x + (1+β²)x²/2, i.e. (q_t − β·q_h)/(1+β²).
	// Moving only this much (instead of the whole buffer) is the
	// Awerbuch–Leighton balancing step that [6] builds on; it is what
	// makes back-pressure's convergence diffusive and slow (§6's
	// ~100,000 iterations) while remaining provably optimal in the
	// long run.
	want float64
}

// Step runs one synchronous iteration: inject, exchange buffer levels,
// allocate each node's resource greedily by potential drop, apply the
// transfers, drain sinks.
func (e *Engine) Step() StepInfo {
	x := e.X
	nc := x.NumCommodities()

	// Inject λ_j at the dummy buffers, dropping overflow (admission).
	for j := 0; j < nc; j++ {
		c := &x.Commodities[j]
		sg := &x.Sub[j]
		e.q[j][sg.Dummy] = math.Min(e.q[j][sg.Dummy]+c.MaxRate, e.cfg.BufferCap)
	}

	// Snapshot buffer levels: every node decides on its neighbors'
	// *previous* levels, which is exactly what the one-round buffer
	// exchange provides.
	snapshot := make([][]float64, nc)
	for j := 0; j < nc; j++ {
		snapshot[j] = append([]float64(nil), e.q[j]...)
	}

	delivered := make([]float64, nc)
	messages := 0
	for n := 0; n < x.NumNodes(); n++ {
		node := graph.NodeID(n)
		capacity := x.Capacity[n]
		if x.OutDegree(node) == 0 {
			continue
		}

		// Collect positive-gain transfer options.
		var options []transfer
		for _, v := range e.at[n] {
			sg := &x.Sub[v.j]
			for _, le := range sg.Out(v.ln) {
				if le == sg.DiffLink {
					continue
				}
				messages++ // head told this tail its buffer level
				if snapshot[v.j][v.ln] <= 0 {
					continue
				}
				beta := sg.Beta[le]
				gain := snapshot[v.j][v.ln] - beta*snapshot[v.j][sg.Head[le]]
				if gain <= 0 {
					continue
				}
				options = append(options, transfer{
					j:    v.j,
					le:   le,
					e:    sg.Edges[le],
					gain: gain / sg.Cost[le],
					want: e.cfg.Damping * gain / (1 + beta*beta),
				})
			}
		}
		if len(options) == 0 {
			continue
		}
		sort.Slice(options, func(a, b int) bool {
			if options[a].gain != options[b].gain {
				return options[a].gain > options[b].gain
			}
			return options[a].e < options[b].e // deterministic ties
		})

		// Greedy fractional allocation of the node's resource.
		remaining := capacity
		avail := make([]float64, nc)
		for _, v := range e.at[n] {
			avail[v.j] = snapshot[v.j][v.ln]
		}
		for _, opt := range options {
			if remaining <= 0 && !math.IsInf(capacity, 1) {
				break
			}
			sg := &x.Sub[opt.j]
			cost := sg.Cost[opt.le]
			amount := math.Min(avail[opt.j], opt.want)
			if !math.IsInf(capacity, 1) {
				amount = math.Min(amount, remaining/cost)
			}
			if amount <= 0 {
				continue
			}
			head := sg.Head[opt.le]
			out := amount * sg.Beta[opt.le]
			e.q[opt.j][sg.Tail[opt.le]] -= amount
			avail[opt.j] -= amount
			if head == sg.Sink {
				delivered[opt.j] += out / e.gSink[opt.j]
			} else {
				e.q[opt.j][head] += out
			}
			if !math.IsInf(capacity, 1) {
				remaining -= amount * cost
			}
		}
	}

	e.iter++
	cum := 0.0
	for j := 0; j < nc; j++ {
		e.totalDelivered[j] += delivered[j]
		cum += e.weight[j] * e.totalDelivered[j]
	}
	return StepInfo{
		Iteration:  e.iter - 1,
		Delivered:  delivered,
		Cumulative: cum / float64(e.iter),
		Messages:   messages,
	}
}
