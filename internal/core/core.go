// Package core is the public face of the library: it joins the model
// (internal/stream), the §3 transformation (internal/transform), the
// paper's gradient algorithm (internal/gradient) in either step mode and
// the LP reference optimum (internal/refopt) behind one Solve call that
// returns admitted rates, per-node allocations on the original network,
// and a convergence trace. The back-pressure baseline of §6 is not a
// solver here: internal/experiments runs it against this one.
//
// Quick start:
//
//	problem, _ := stream.Figure1(stream.Figure1Config{...})
//	result, err := core.Solve(problem, core.Options{})
//	fmt.Println(result.Utility, result.Admitted)
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/graph"
	"repro/internal/refopt"
	"repro/internal/stream"
	"repro/internal/transform"
)

// Algorithm selects the solver.
type Algorithm string

// Available algorithms.
const (
	// Gradient is the paper's §5 distributed gradient-based algorithm
	// (synchronous engine).
	Gradient Algorithm = "gradient"
	// GradientAdaptive is the same engine with backtracking step
	// control on (gradient.Config.Backtrack): no η tuning required, and
	// the cost is monotone.
	GradientAdaptive Algorithm = "gradient-adaptive"
	// Reference solves the exact optimum by linear programming (PWL
	// approximation for concave utilities).
	Reference Algorithm = "reference"
)

// Options configures Solve. The zero value reproduces the paper's §6
// settings (gradient algorithm, ε = 0.2, η = 0.04).
type Options struct {
	Algorithm Algorithm // default Gradient

	// Shared transformation knobs (§3).
	Epsilon float64 // penalty coefficient ε; default 0.2

	// Iteration budget; default 5000.
	MaxIters int
	// SampleEvery keeps every k-th trace point (and always the last
	// iteration run); default keeps all.
	SampleEvery int
	// StationaryTol, when positive, stops the gradient algorithms once
	// Theorem 2's necessary optimality condition holds within the
	// tolerance (gradient.CheckStationarity's MaxUsedGap), checked
	// every 50 iterations. Grounded convergence detection without a
	// reference solve.
	StationaryTol float64

	// Gradient knobs (§5).
	Eta float64 // step scale η; default 0.04
	// Workers bounds the engine's per-commodity wave pool
	// (gradient.Config.Workers); zero means 1. The trajectory
	// is identical for any value.
	Workers int

	// Reference knobs.
	Segments int

	// WithReference also computes the LP optimum for comparison.
	WithReference bool

	// Explain, when true, attaches a per-commodity bottleneck
	// attribution (Result.Explain) derived from the final flow
	// evaluation: binding resources with shadow prices and the
	// marginal-utility-vs-path-cost gap. Gradient algorithms only (the
	// reference exposes no flow evaluation).
	Explain bool
}

// TracePoint is one sample of the convergence curve (Figure 4).
type TracePoint struct {
	Iteration int
	Utility   float64
	Cost      float64 // A = Y + εD
}

// NodeUsage reports one original-network element's allocation.
type NodeUsage struct {
	Name        string
	Kind        string // "server" or "link"
	Capacity    float64
	Usage       float64
	Utilization float64 // Usage/Capacity
}

// ResourcePrice is the shadow price of one original-network resource at
// the LP optimum: the marginal total-utility value of one extra unit of
// its capacity (Kelly-style congestion price).
type ResourcePrice struct {
	Name  string
	Kind  string // "server" or "link"
	Price float64
}

// ExplainBinding is one saturated resource in a commodity's
// attribution, mapped back to the original network.
type ExplainBinding struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"` // "server" or "link"
	Utilization float64 `json:"utilization"`
	// Price is the resource's live shadow price ε·D'_i(f_i): the
	// marginal cost it adds per unit of flow through it.
	Price float64 `json:"price"`
}

// CommodityExplain answers "why is this commodity admitted at this
// rate?": the admission marginals of §5 plus the binding resources.
type CommodityExplain struct {
	Name     string  `json:"name"`
	Offered  float64 `json:"offered"`
	Admitted float64 `json:"admitted"`
	Utility  float64 `json:"utility"`
	// MarginalUtility is U'_j(a_j); PathCost the marginal cost of
	// admitting one more unit; Gap their difference (≈0 when admission
	// is capacity-priced, positive when fully admitted with headroom).
	MarginalUtility float64 `json:"marginalUtility"`
	PathCost        float64 `json:"pathCost"`
	Gap             float64 `json:"gap"`
	// Binding lists saturated resources, highest shadow price first;
	// empty when the commodity is limited only by its offered rate.
	Binding []ExplainBinding `json:"binding"`
}

// Result is the outcome of Solve.
type Result struct {
	Algorithm Algorithm
	// Utility is Σ_j U_j(a_j) at the returned operating point.
	Utility float64
	// Admitted is the admission rate a_j per commodity (source units).
	Admitted []float64
	// Commodity names aligned with Admitted.
	Commodities []string
	// Iterations actually executed.
	Iterations int
	// ReferenceUtility is the LP optimum when computed (else NaN).
	ReferenceUtility float64
	// Trace samples the convergence curve.
	Trace []TracePoint
	// Usage reports per-server and per-link allocations on the
	// original network (not populated for Reference).
	Usage []NodeUsage
	// Messages and Rounds are the §5 protocol's costs as the engine
	// accounts them (gradient.Stats).
	Messages int
	Rounds   int
	// Prices lists resources with positive shadow price at the LP
	// optimum (populated whenever the reference optimum is computed),
	// sorted by price descending.
	Prices []ResourcePrice
	// Explain is the per-commodity bottleneck attribution (only when
	// Options.Explain is set and the algorithm exposes a final flow
	// evaluation).
	Explain []CommodityExplain
}

// ErrUnknownAlgorithm is returned for an unrecognized Options.Algorithm.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// Solve validates and transforms the problem, runs the selected
// algorithm, and assembles the report.
func Solve(p *stream.Problem, opts Options) (*Result, error) {
	if opts.Algorithm == "" {
		opts.Algorithm = Gradient
	}
	switch opts.Algorithm {
	case Gradient, GradientAdaptive, Reference:
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, opts.Algorithm)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: opts.Epsilon})
	if err != nil {
		return nil, err
	}

	res := &Result{Algorithm: opts.Algorithm, ReferenceUtility: math.NaN()}
	for _, c := range x.Commodities {
		res.Commodities = append(res.Commodities, c.Name)
	}
	if opts.WithReference || opts.Algorithm == Reference {
		ref, err := refopt.Solve(x, refopt.Options{Segments: opts.Segments})
		if err != nil {
			return nil, err
		}
		res.ReferenceUtility = ref.Utility
		res.Prices = collectPrices(p, x, ref)
		if opts.Algorithm == Reference {
			res.Utility = ref.Utility
			res.Admitted = ref.Admitted
			return res, nil
		}
	}
	return res, solveGradient(p, x, opts, res)
}

// solveGradient runs the synchronous engine in either step mode:
// opts.Algorithm picks fixed η or backtracking, everything else — the
// trace, divergence detection, the early stop, the protocol accounting
// — is one loop.
func solveGradient(p *stream.Problem, x *transform.Extended, opts Options, res *Result) error {
	if opts.MaxIters <= 0 {
		opts.MaxIters = 5000
	}
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = 1
	}
	eng := gradient.New(x, gradient.Config{
		Eta:       opts.Eta,
		Backtrack: opts.Algorithm == GradientAdaptive,
		Workers:   opts.Workers,
	})
	var det gradient.DivergenceDetector
	var last TracePoint
	for i := 0; i < opts.MaxIters; i++ {
		info := eng.Step()
		last = TracePoint{Iteration: info.Iteration, Utility: info.Utility, Cost: info.Cost}
		if i%opts.SampleEvery == 0 {
			res.Trace = append(res.Trace, last)
		}
		if err := det.Observe(info); err != nil {
			return err
		}
		if opts.StationaryTol > 0 && i%50 == 49 {
			if eng.Stationarity().MaxUsedGap <= opts.StationaryTol {
				break
			}
		}
	}
	// The last iteration run is always sampled, whether the budget or the
	// stationarity test ended the loop.
	if res.Trace[len(res.Trace)-1].Iteration != last.Iteration {
		res.Trace = append(res.Trace, last)
	}
	st := eng.Stats()
	res.Iterations = st.Iterations
	res.Messages = st.Messages
	res.Rounds = st.Rounds
	u := eng.Solution()
	res.Utility = u.Utility()
	res.Admitted = make([]float64, x.NumCommodities())
	for j := range res.Admitted {
		res.Admitted[j] = u.AdmittedRate(j)
	}
	res.Usage = UsageReport(p, x, u)
	if opts.Explain {
		res.Explain = Explain(p, x, u)
	}
	return nil
}

// Explain maps gradient.AttributeAll back onto the original network:
// one entry per commodity with its admission marginals and its binding
// servers/links named as the operator knows them. The admission server
// publishes this per snapshot (the /explain endpoint); Solve embeds it
// in Result.Explain when Options.Explain is set.
func Explain(p *stream.Problem, x *transform.Extended, u *flow.Usage) []CommodityExplain {
	out := make([]CommodityExplain, 0, x.NumCommodities())
	for _, at := range gradient.AttributeAll(u) {
		ce := CommodityExplain{
			Name:            x.Commodities[at.Commodity].Name,
			Offered:         at.Offered,
			Admitted:        at.Admitted,
			Utility:         at.Utility,
			MarginalUtility: at.MarginalUtility,
			PathCost:        at.PathCost,
			Gap:             at.Gap,
		}
		for _, bn := range at.Binding {
			name, kind, ok := resourceName(p, x, bn.Node)
			if !ok {
				continue // dummy-layer node; never capacitated
			}
			ce.Binding = append(ce.Binding, ExplainBinding{
				Name: name, Kind: kind,
				Utilization: bn.Utilization, Price: bn.Price,
			})
		}
		out = append(out, ce)
	}
	return out
}

// resourceName maps an extended node back to the original server or
// link it stands for; ok is false for dummy-layer nodes.
func resourceName(p *stream.Problem, x *transform.Extended, n graph.NodeID) (name, kind string, ok bool) {
	switch x.Kind(n) {
	case transform.Proc:
		return x.Name(n), "server", true
	case transform.Bandwidth:
		edge := p.Net.G.Edge(x.Link(n))
		return p.Net.Names[edge.From] + "->" + p.Net.Names[edge.To], "link", true
	}
	return "", "", false
}

// UsageReport maps a flow evaluation back onto the original network:
// one entry per server (extended Proc node) and per link (extended
// Bandwidth node), with capacity, usage, and utilization. Solve embeds
// it in Result.Usage.
func UsageReport(p *stream.Problem, x *transform.Extended, u *flow.Usage) []NodeUsage {
	return UsageReportShared(p, x, u.FNode[:x.SharedNodes])
}

// UsageReportShared is the per-resource report over a usage vector on
// the shared node prefix, where every Proc and Bandwidth node lives: a
// flow evaluation's FNode prefix, or the shard coordinator's merged
// global usage (the admission server publishes that per snapshot). x
// may be any build over the same network — the prefix layout is
// identical across subset builds; usage must not exceed x.SharedNodes.
func UsageReportShared(p *stream.Problem, x *transform.Extended, usage []float64) []NodeUsage {
	var report []NodeUsage
	for n, f := range usage {
		name, kind, ok := resourceName(p, x, graph.NodeID(n))
		if !ok {
			continue
		}
		report = append(report, NodeUsage{
			Name:        name,
			Kind:        kind,
			Capacity:    x.Capacity[n],
			Usage:       f,
			Utilization: f / x.Capacity[n],
		})
	}
	return report
}

// collectPrices maps the reference optimum's positive shadow prices
// back onto original servers and links, sorted by price descending.
func collectPrices(p *stream.Problem, x *transform.Extended, ref *refopt.Result) []ResourcePrice {
	var prices []ResourcePrice
	for n, price := range ref.ShadowPrice {
		if price <= 1e-9 {
			continue
		}
		if name, kind, ok := resourceName(p, x, graph.NodeID(n)); ok {
			prices = append(prices, ResourcePrice{Name: name, Kind: kind, Price: price})
		}
	}
	sort.Slice(prices, func(a, b int) bool { return prices[a].Price > prices[b].Price })
	return prices
}
