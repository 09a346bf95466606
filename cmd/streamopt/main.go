// Command streamopt solves a stream-processing resource-management
// problem instance (JSON, see internal/stream's schema or cmd/netgen)
// with the paper's gradient algorithm (fixed η, or -alg
// gradient-adaptive for backtracking step control) or the LP reference
// optimum, and prints admission rates, utility, and resource
// allocations. The back-pressure baseline is run by cmd/experiments.
//
//	go run ./cmd/netgen -seed 42 > instance.json
//	go run ./cmd/streamopt -in instance.json -alg gradient -ref
//
// A solve is observed through what it returns: the report's protocol
// line carries the messages and rounds, -trace prints the convergence
// trace (Figure 4's utility-versus-iteration curve) after the report,
// and -trace-out writes it as JSONL instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/stream"
)

// cliConfig carries every flag so tests can drive realMain directly.
type cliConfig struct {
	in      string
	alg     string
	iters   int
	eta     float64
	eps     float64
	ref     bool
	topN    int
	trace   bool
	sample  int
	explain bool

	traceOut string
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.in, "in", "", "problem JSON (required)")
	flag.StringVar(&cfg.alg, "alg", "gradient", "algorithm: gradient | gradient-adaptive | reference")
	flag.IntVar(&cfg.iters, "iters", 0, "iteration budget (0 = algorithm default)")
	flag.Float64Var(&cfg.eta, "eta", 0.04, "gradient step scale η")
	flag.Float64Var(&cfg.eps, "eps", 0.2, "penalty coefficient ε")
	flag.BoolVar(&cfg.ref, "ref", false, "also compute the LP reference optimum")
	flag.IntVar(&cfg.topN, "top", 10, "show the N most utilized resources")
	flag.BoolVar(&cfg.trace, "trace", false, "print the convergence trace")
	flag.IntVar(&cfg.sample, "sample", 0, "trace sampling stride (0 = default)")
	flag.BoolVar(&cfg.explain, "explain", false, "print per-commodity bottleneck attribution (gradient algorithms only)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the convergence trace as JSONL to this file")
	flag.Parse()
	if err := realMain(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "streamopt:", err)
		os.Exit(1)
	}
}

func realMain(cfg cliConfig) error {
	if cfg.in == "" {
		return fmt.Errorf("-in is required")
	}
	data, err := os.ReadFile(cfg.in)
	if err != nil {
		return err
	}
	p, err := stream.ParseProblem(data)
	if err != nil {
		return err
	}

	res, err := core.Solve(p, core.Options{
		Algorithm:     core.Algorithm(cfg.alg),
		MaxIters:      cfg.iters,
		Eta:           cfg.eta,
		Epsilon:       cfg.eps,
		WithReference: cfg.ref,
		SampleEvery:   cfg.sample,
		Explain:       cfg.explain,
	})
	if err != nil {
		return err
	}

	fmt.Printf("algorithm:  %s\n", res.Algorithm)
	fmt.Printf("iterations: %d\n", res.Iterations)
	fmt.Printf("utility:    %.4f\n", res.Utility)
	if cfg.ref && res.ReferenceUtility == res.ReferenceUtility {
		fmt.Printf("optimal:    %.4f  (achieved %.1f%%)\n",
			res.ReferenceUtility, 100*res.Utility/res.ReferenceUtility)
	}
	if res.Messages > 0 {
		fmt.Printf("protocol:   %d messages, %d rounds\n", res.Messages, res.Rounds)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\ncommodity\tadmitted rate")
	for j, name := range res.Commodities {
		fmt.Fprintf(w, "%s\t%.4f\n", name, res.Admitted[j])
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if cfg.explain {
		if len(res.Explain) == 0 {
			fmt.Printf("\n(-explain: algorithm %s exposes no attribution)\n", res.Algorithm)
		} else {
			printExplain(res.Explain)
		}
	}

	if len(res.Usage) > 0 && cfg.topN > 0 {
		topN := cfg.topN
		sort.Slice(res.Usage, func(a, b int) bool {
			return res.Usage[a].Utilization > res.Usage[b].Utilization
		})
		if topN > len(res.Usage) {
			topN = len(res.Usage)
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "\nresource\tkind\tcapacity\tusage\tutilization")
		for _, u := range res.Usage[:topN] {
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\t%.1f%%\n",
				u.Name, u.Kind, u.Capacity, u.Usage, 100*u.Utilization)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	if len(res.Prices) > 0 {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "\nbottleneck\tkind\tshadow price (utility per capacity unit)")
		limit := cfg.topN
		if limit <= 0 || limit > len(res.Prices) {
			limit = len(res.Prices)
		}
		for _, pr := range res.Prices[:limit] {
			fmt.Fprintf(w, "%s\t%s\t%.4f\n", pr.Name, pr.Kind, pr.Price)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	if cfg.traceOut != "" {
		if err := writeTrace(cfg.traceOut, res.Trace); err != nil {
			return err
		}
	}
	if cfg.trace {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "\niter\tutility\tcost")
		for _, tp := range res.Trace {
			fmt.Fprintf(w, "%d\t%.4f\t%.4f\n", tp.Iteration, tp.Utility, tp.Cost)
		}
		return w.Flush()
	}
	return nil
}

// printExplain renders the bottleneck attribution: per commodity its
// admission marginals and each binding resource with its shadow price.
func printExplain(explain []core.CommodityExplain) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\ncommodity\tadmitted/offered\tU'(a)\tpath cost\tgap\tbottleneck")
	for _, ce := range explain {
		bottleneck := "(none: admission limited by offered rate)"
		if len(ce.Binding) > 0 {
			b := ce.Binding[0]
			bottleneck = fmt.Sprintf("%s %s (price %.4f, util %.1f%%)",
				b.Kind, b.Name, b.Price, 100*b.Utilization)
		}
		fmt.Fprintf(w, "%s\t%.4f/%.4f\t%.4f\t%.4f\t%.4f\t%s\n",
			ce.Name, ce.Admitted, ce.Offered, ce.MarginalUtility, ce.PathCost, ce.Gap, bottleneck)
		for _, b := range ce.Binding[1:] {
			fmt.Fprintf(w, "\t\t\t\t\talso %s %s (price %.4f, util %.1f%%)\n",
				b.Kind, b.Name, b.Price, 100*b.Utilization)
		}
	}
	_ = w.Flush()
}

// tracePoint is the JSONL schema of one -trace-out line.
type tracePoint struct {
	Iteration int     `json:"iter"`
	Utility   float64 `json:"utility"`
	Cost      float64 `json:"cost"`
}

// writeTrace dumps the convergence trace as one JSON object per line.
func writeTrace(path string, trace []core.TracePoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, tp := range trace {
		if err := enc.Encode(tracePoint{tp.Iteration, tp.Utility, tp.Cost}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
