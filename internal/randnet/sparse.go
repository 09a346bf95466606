package randnet

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/utility"
)

// GenerateSparse builds a many-commodity instance over a small shared
// processing core: each commodity is one random chain through the
// layered core (one hosting node per layer) plus a private sink, so its
// member subgraph is O(Layers) edges regardless of how many commodities
// share the network. This is the regime the sparse Subgraph
// representation targets — J in the tens of thousands, per-commodity
// footprint a short path — which Generate cannot reach because it
// links every last-layer node to every sink (O(J²) edges) and requires
// one exclusive first-layer source per commodity.
//
// Config is interpreted as in Generate except that Commodities is
// unconstrained by Nodes, the link and hosting probabilities play no
// part (links exist exactly where some commodity's chain needs them),
// and sources are drawn with replacement from the first layer.
func GenerateSparse(cfg Config) (*stream.Problem, error) {
	cfg.setDefaults()
	if cfg.Layers < 2 {
		return nil, fmt.Errorf("randnet: need at least 2 layers, got %d", cfg.Layers)
	}
	if cfg.Nodes < cfg.Layers {
		return nil, fmt.Errorf("randnet: %d nodes cannot fill %d layers", cfg.Nodes, cfg.Layers)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	uni := func(lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

	net := stream.NewNetwork()
	layers := make([][]graph.NodeID, cfg.Layers)
	for i := 0; i < cfg.Nodes; i++ {
		l := i * cfg.Layers / cfg.Nodes
		id, err := net.AddServer(fmt.Sprintf("n%02d", i), uni(cfg.CapMin, cfg.CapMax))
		if err != nil {
			return nil, err
		}
		layers[l] = append(layers[l], id)
	}
	addLink := func(from, to graph.NodeID) (graph.EdgeID, error) {
		if e := net.G.EdgeBetween(from, to); e != graph.Invalid {
			return e, nil
		}
		return net.AddLink(from, to, uni(bwMin, bwMax))
	}

	p := stream.NewProblem(net)
	for j := 0; j < cfg.Commodities; j++ {
		name := fmt.Sprintf("S%d", j+1)
		sink, err := net.AddSink("sink:" + name)
		if err != nil {
			return nil, err
		}
		chain := make([]graph.NodeID, cfg.Layers+1)
		for l := 0; l < cfg.Layers; l++ {
			chain[l] = layers[l][r.Intn(len(layers[l]))]
		}
		chain[cfg.Layers] = sink
		edges := make([]graph.EdgeID, cfg.Layers)
		for l := 0; l+1 < len(chain); l++ {
			e, err := addLink(chain[l], chain[l+1])
			if err != nil {
				return nil, err
			}
			edges[l] = e
		}
		com, err := p.AddCommodity(name, chain[0], sink, uni(cfg.LambdaMin, cfg.LambdaMax), utility.Linear{Slope: 1})
		if err != nil {
			return nil, err
		}
		// Potentials per chain node; β_ik = g_k/g_i gives Property 1 by
		// construction (trivially path-independent on a chain).
		g := make([]float64, len(chain))
		for i := range g {
			g[i] = uni(gMin, gMax)
		}
		for l, e := range edges {
			params := stream.EdgeParams{
				Beta: g[l+1] / g[l],
				Cost: uni(cfg.CostMin, cfg.CostMax),
			}
			if err := p.SetEdge(com, e, params); err != nil {
				return nil, err
			}
		}
	}

	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("randnet: generated sparse instance invalid: %w", err)
	}
	return p, nil
}
