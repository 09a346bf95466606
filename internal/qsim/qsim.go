// Package qsim is a discrete-time queueing simulator for the stream
// processing network: it takes a routing decision (typically the
// gradient algorithm's fixed point) and simulates the actual queue
// dynamics — stochastic arrivals, per-tick processor sharing under the
// node capacities, shrinkage at every hop — to validate that the
// optimizer's *rates* are achievable by a real system with bounded
// queues. The paper works entirely at the fluid (rate) level; this
// substrate is the testbed its evaluation implies: a feasible operating
// point with barrier headroom must yield stable queues, and an
// overloaded one must not (§2's motivation: "a load that exceeds the
// system capacity during times of stress").
package qsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/flow"
	"repro/internal/graph"
)

// Arrivals selects the source arrival process.
type Arrivals int

// Arrival processes.
const (
	// Deterministic injects exactly λ_j per tick.
	Deterministic Arrivals = iota + 1
	// Poisson injects a Poisson(λ_j) amount per tick (bursty).
	Poisson
)

// Config tunes a simulation run.
type Config struct {
	// Ticks is the simulated horizon; default 2000.
	Ticks int
	// Warmup ticks are excluded from averaged statistics; default 10%
	// of Ticks.
	Warmup int
	// Arrivals selects the arrival process; default Deterministic.
	Arrivals Arrivals
	// Seed drives the arrival randomness (Poisson only).
	Seed int64
}

func (c *Config) setDefaults() {
	if c.Ticks <= 0 {
		c.Ticks = 2000
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Ticks / 10
	}
	if c.Arrivals == 0 {
		c.Arrivals = Deterministic
	}
}

// Result aggregates a run.
type Result struct {
	// Delivered[j] is the average delivered rate at commodity j's sink
	// (source units per tick, post warmup).
	Delivered []float64
	// Dropped[j] is the average rate rejected at the dummy node.
	Dropped []float64
	// AvgQueue / PeakQueue are total buffered work across all node
	// queues (input units), averaged / maximized post warmup.
	AvgQueue  float64
	PeakQueue float64
	// AvgDelayTicks estimates end-to-end sojourn time by Little's law:
	// average total queue divided by total delivered rate (in delivered
	// units).
	AvgDelayTicks float64
	// QueueTrace samples total queued work every SampleEvery ticks.
	QueueTrace []float64
}

// visit is one entry of a node's inverted member list: commodity j is
// present at the node with local node index ln in X.Sub[j].
type visit struct {
	j  int32
	ln int32
}

// Run simulates the network under the given routing decision.
//
// Per tick: arrivals enter each dummy node; the dummy immediately
// splits them by its routing fractions (the difference-link share is
// dropped — that is admission control); every capacitated node then
// serves its queues with processor sharing — each queued commodity
// wants to forward its backlog split by φ, every unit forwarded over
// edge e costs c_e(j) resource, and when total demand exceeds the
// capacity all transfers scale down proportionally; forwarded work
// arrives at the head queue multiplied by β_e(j); sinks absorb.
//
// Queues are held in each commodity's Subgraph local indexing (O(member
// nodes) memory per commodity); a per-node inverted list of (commodity,
// local node) pairs replaces the old dense membership scans while
// visiting the same (node, commodity, edge) order.
func Run(r *flow.Routing, cfg Config) (*Result, error) {
	cfg.setDefaults()
	x := r.X
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("qsim: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	nn := x.G.NumNodes()
	nc := x.NumCommodities()
	q := make([][]float64, nc)
	at := make([][]visit, nn)
	for j := range q {
		sg := &x.Sub[j]
		q[j] = make([]float64, sg.NumNodes())
		for ln, n := range sg.Nodes {
			at[n] = append(at[n], visit{j: int32(j), ln: int32(ln)})
		}
	}
	res := &Result{
		Delivered: make([]float64, nc),
		Dropped:   make([]float64, nc),
	}
	measured := 0

	for tick := 0; tick < cfg.Ticks; tick++ {
		// Arrivals + admission at the dummies.
		for j := 0; j < nc; j++ {
			c := &x.Commodities[j]
			sg := &x.Sub[j]
			amount := c.MaxRate
			if cfg.Arrivals == Poisson {
				amount = poisson(rng, c.MaxRate)
			}
			admitted := amount * r.Phi[j][sg.InputLink]
			dropped := amount - admitted
			q[j][sg.Source] += admitted
			if tick >= cfg.Warmup {
				res.Dropped[j] += dropped
			}
		}

		// Service: snapshot queues so every node serves this tick's
		// backlog simultaneously (like the synchronous protocols).
		arrivals := make([][]float64, nc)
		for j := range arrivals {
			arrivals[j] = make([]float64, len(q[j]))
		}
		for n := 0; n < nn; n++ {
			node := graph.NodeID(n)
			if x.G.OutDegree(node) == 0 {
				continue
			}
			// Demand if every queue were fully forwarded this tick.
			demand := 0.0
			for _, v := range at[n] {
				if q[v.j][v.ln] <= 0 {
					continue
				}
				sg := &x.Sub[v.j]
				for _, le := range sg.Out(v.ln) {
					demand += q[v.j][v.ln] * r.Phi[v.j][le] * sg.Cost[le]
				}
			}
			if demand == 0 {
				continue
			}
			share := 1.0
			if capn := x.Capacity[n]; !math.IsInf(capn, 1) && demand > capn {
				share = capn / demand
			}
			for _, v := range at[n] {
				if q[v.j][v.ln] <= 0 {
					continue
				}
				sg := &x.Sub[v.j]
				served := 0.0
				for _, le := range sg.Out(v.ln) {
					xfer := q[v.j][v.ln] * r.Phi[v.j][le] * share
					served += xfer
					head := sg.Head[le]
					out := xfer * sg.Beta[le]
					if head == sg.Sink {
						if tick >= cfg.Warmup {
							res.Delivered[v.j] += out
						}
					} else {
						arrivals[v.j][head] += out
					}
				}
				q[v.j][v.ln] -= served
			}
		}
		for j := 0; j < nc; j++ {
			for ln := range q[j] {
				q[j][ln] += arrivals[j][ln]
			}
		}

		if tick >= cfg.Warmup {
			total := 0.0
			for j := 0; j < nc; j++ {
				for ln := range q[j] {
					total += q[j][ln]
				}
			}
			res.AvgQueue += total
			if total > res.PeakQueue {
				res.PeakQueue = total
			}
			measured++
			if sampleEvery := cfg.Ticks / 100; sampleEvery == 0 || tick%max(1, sampleEvery) == 0 {
				res.QueueTrace = append(res.QueueTrace, total)
			}
		}
	}

	if measured > 0 {
		res.AvgQueue /= float64(measured)
		deliveredTotal := 0.0
		for j := 0; j < nc; j++ {
			res.Delivered[j] /= float64(measured)
			res.Dropped[j] /= float64(measured)
			deliveredTotal += res.Delivered[j]
		}
		if deliveredTotal > 0 {
			res.AvgDelayTicks = res.AvgQueue / deliveredTotal
		}
		// Delivered is counted in sink units; convert to source units
		// with the potentials so it is comparable to admitted rates.
		for j := 0; j < nc; j++ {
			if g := x.Sub[j].SinkPotential(); g > 0 {
				res.Delivered[j] /= g
			}
		}
	}
	return res, nil
}

// poisson draws a Poisson(mean) sample. For large means it uses the
// normal approximation, which is plenty for load modeling.
func poisson(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return v
	}
	// Knuth's method.
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return float64(k)
		}
		k++
	}
}
