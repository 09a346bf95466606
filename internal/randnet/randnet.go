// Package randnet generates the synthetic random instances of §6: a
// random network of processing nodes with capacities and bandwidths
// drawn U[1,100], per-commodity shrinkage factors derived from node
// potentials g ~ U[1,10] (so Property 1 holds by construction), and
// resource consumption rates U[1,5]. Every commodity's utility is
// linear with slope 1 (total throughput, §6); a caller that wants
// another sets it after generating (stream.Problem.SetUtility).
//
// The paper does not specify the topology beyond "synthetic (random)
// network containing 40 nodes" with per-commodity DAGs; we use layered
// random DAGs (nodes spread over layers, forward edges between nearby
// layers) with guaranteed source→sink connectivity per commodity. Layer
// count controls graph depth, which experiment T3 sweeps.
package randnet

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/utility"
)

// Config parameterizes generation. Zero values select the §6 defaults.
type Config struct {
	Nodes       int // processing nodes; default 40
	Commodities int // default 3
	Layers      int // default 5
	// Capacity range; default U[1,100] (§6).
	CapMin, CapMax float64
	// Resource-consumption range; default U[1,5] (§6).
	CostMin, CostMax float64
	// Offered-rate range; the paper studies overload, so the default
	// U[50,100] typically exceeds what the network can carry.
	LambdaMin, LambdaMax float64
	// Seed drives the deterministic generator.
	Seed int64
}

// The generator's fixed shape: the probability of a link between nodes
// in adjacent layers (edgeProb) and of one skipping a layer (skipProb);
// the probability that an interior node hosts a given commodity's task,
// joining that commodity's DAG (taskFraction; a random source→sink
// chain is always force-hosted so every commodity is connected); the
// bandwidth range U[1,100] and the node-potential range U[1,10] the
// shrinkage factors derive from (§6).
const (
	edgeProb     = 0.5
	skipProb     = 0.15
	taskFraction = 0.7
	bwMin, bwMax = 1, 100
	gMin, gMax   = 1, 10
)

func (c *Config) setDefaults() {
	setInt := func(p *int, v int) {
		if *p <= 0 {
			*p = v
		}
	}
	setF := func(p *float64, v float64) {
		if *p <= 0 {
			*p = v
		}
	}
	setInt(&c.Nodes, 40)
	setInt(&c.Commodities, 3)
	setInt(&c.Layers, 5)
	setF(&c.CapMin, 1)
	setF(&c.CapMax, 100)
	setF(&c.CostMin, 1)
	setF(&c.CostMax, 5)
	setF(&c.LambdaMin, 50)
	setF(&c.LambdaMax, 100)
}

// Generate builds a random problem instance. The same Config (including
// Seed) always yields the same instance.
func Generate(cfg Config) (*stream.Problem, error) {
	cfg.setDefaults()
	if cfg.Layers < 2 {
		return nil, fmt.Errorf("randnet: need at least 2 layers, got %d", cfg.Layers)
	}
	if cfg.Nodes < cfg.Layers {
		return nil, fmt.Errorf("randnet: %d nodes cannot fill %d layers", cfg.Nodes, cfg.Layers)
	}
	if cfg.Commodities > cfg.Nodes/cfg.Layers {
		return nil, fmt.Errorf("randnet: %d commodities need %d first-layer nodes, layer has %d",
			cfg.Commodities, cfg.Commodities, cfg.Nodes/cfg.Layers)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	uni := func(lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

	net := stream.NewNetwork()

	// Layered processing nodes.
	layers := make([][]graph.NodeID, cfg.Layers)
	for i := 0; i < cfg.Nodes; i++ {
		l := i * cfg.Layers / cfg.Nodes
		id, err := net.AddServer(fmt.Sprintf("n%02d", i), uni(cfg.CapMin, cfg.CapMax))
		if err != nil {
			return nil, err
		}
		layers[l] = append(layers[l], id)
	}

	// Forward links between adjacent layers (probability edgeProb) and
	// one-layer skips (skipProb); then patch connectivity so every
	// interior node has at least one in-link and one out-link.
	addLink := func(from, to graph.NodeID) error {
		if net.G.EdgeBetween(from, to) != graph.Invalid {
			return nil
		}
		_, err := net.AddLink(from, to, uni(bwMin, bwMax))
		return err
	}
	for l := 0; l+1 < cfg.Layers; l++ {
		for _, u := range layers[l] {
			for _, v := range layers[l+1] {
				if r.Float64() < edgeProb {
					if err := addLink(u, v); err != nil {
						return nil, err
					}
				}
			}
			if l+2 < cfg.Layers {
				for _, v := range layers[l+2] {
					if r.Float64() < skipProb {
						if err := addLink(u, v); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	for l := 0; l+1 < cfg.Layers; l++ {
		for _, u := range layers[l] {
			if net.G.OutDegree(u) == 0 {
				v := layers[l+1][r.Intn(len(layers[l+1]))]
				if err := addLink(u, v); err != nil {
					return nil, err
				}
			}
		}
		for _, v := range layers[l+1] {
			if net.G.InDegree(v) == 0 {
				u := layers[l][r.Intn(len(layers[l]))]
				if err := addLink(u, v); err != nil {
					return nil, err
				}
			}
		}
	}

	// Sinks (one per commodity) fed from the last layer.
	p := stream.NewProblem(net)
	firstLayer := layers[0]
	lastLayer := layers[cfg.Layers-1]
	srcPerm := r.Perm(len(firstLayer))
	for j := 0; j < cfg.Commodities; j++ {
		name := fmt.Sprintf("S%d", j+1)
		sink, err := net.AddSink("sink:" + name)
		if err != nil {
			return nil, err
		}
		source := firstLayer[srcPerm[j]]
		// Every last-layer node may deliver to this sink.
		for _, u := range lastLayer {
			if err := addLink(u, sink); err != nil {
				return nil, err
			}
		}

		// Hosting set: the source, a guaranteed random chain through
		// the layers, and each remaining node with prob taskFraction.
		hosts := make([]bool, net.G.NumNodes())
		hosts[source] = true
		hosts[sink] = true
		prev := source
		for l := 1; l < cfg.Layers; l++ {
			candidates := successorsInLayer(net.G, prev, layers[l])
			if len(candidates) == 0 {
				// No direct link from the chain node into this layer:
				// create one (keeps every commodity connected).
				v := layers[l][r.Intn(len(layers[l]))]
				if err := addLink(prev, v); err != nil {
					return nil, err
				}
				candidates = []graph.NodeID{v}
			}
			next := candidates[r.Intn(len(candidates))]
			hosts[next] = true
			prev = next
		}
		for _, layer := range layers[1:] {
			for _, u := range layer {
				if !hosts[u] && r.Float64() < taskFraction {
					hosts[u] = true
				}
			}
		}

		// Potentials g ~ U[gMin,gMax]; β_ik = g_k/g_i (Property 1 by
		// construction). The source potential normalizes to 1
		// implicitly since only ratios matter.
		g := make([]float64, net.G.NumNodes())
		for i := range g {
			g[i] = uni(gMin, gMax)
		}
		lambda := uni(cfg.LambdaMin, cfg.LambdaMax)
		com, err := p.AddCommodity(name, source, sink, lambda, utility.Linear{Slope: 1})
		if err != nil {
			return nil, err
		}
		for e := 0; e < net.G.NumEdges(); e++ {
			edge := net.G.Edge(graph.EdgeID(e))
			if !hosts[edge.From] || !hosts[edge.To] {
				continue
			}
			if net.Kinds[edge.To] == stream.Sink && edge.To != sink {
				continue
			}
			params := stream.EdgeParams{
				Beta: g[edge.To] / g[edge.From],
				Cost: uni(cfg.CostMin, cfg.CostMax),
			}
			if err := p.SetEdge(com, graph.EdgeID(e), params); err != nil {
				return nil, err
			}
		}
	}

	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("randnet: generated instance invalid: %w", err)
	}
	return p, nil
}

// successorsInLayer lists the direct successors of u inside the layer.
func successorsInLayer(g *graph.Graph, u graph.NodeID, layer []graph.NodeID) []graph.NodeID {
	inLayer := make(map[graph.NodeID]bool, len(layer))
	for _, v := range layer {
		inLayer[v] = true
	}
	var out []graph.NodeID
	for _, e := range g.Out(u) {
		if v := g.Edge(e).To; inLayer[v] {
			out = append(out, v)
		}
	}
	return out
}
