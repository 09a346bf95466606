// Validate: from optimization to deployment. Solves a §6-style random
// instance with the gradient algorithm, decomposes the fluid solution
// into concrete forwarding paths (what you would install as routing
// rules), and then replays the plan in the discrete-time queueing
// simulator under bursty Poisson arrivals to confirm the rates are
// actually achievable with bounded queues.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/qsim"
	"repro/internal/randnet"
	"repro/internal/transform"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	problem, err := randnet.Generate(randnet.Config{Seed: 2})
	if err != nil {
		return err
	}
	x, err := transform.Build(problem, transform.Options{Epsilon: 0.2})
	if err != nil {
		return err
	}

	// 1. Optimize.
	eng := gradient.New(x, gradient.Config{Eta: 0.04})
	if _, _, err := eng.Run(context.Background(), 5000, 0, new(gradient.DivergenceDetector), nil); err != nil {
		return err
	}
	sol := eng.Solution()
	fmt.Println("step 1 — optimize (gradient algorithm, 5000 iterations)")
	for j := range x.Commodities {
		c := &x.Commodities[j]
		fmt.Printf("  %s: admit %.2f of offered %.2f\n", c.Name, sol.AdmittedRate(j), c.MaxRate)
	}

	// 2. Decompose into forwarding paths.
	fmt.Println("\nstep 2 — decompose the flow into forwarding paths")
	for j := range x.Commodities {
		paths, err := flow.DecomposePaths(sol, j)
		if err != nil {
			return err
		}
		sort.Slice(paths, func(a, b int) bool { return paths[a].Rate > paths[b].Rate })
		shown := 0
		for _, p := range paths {
			if p.ViaDiffLink {
				fmt.Printf("  %s: %6.2f  rejected at admission\n", x.Commodities[j].Name, p.Rate)
				continue
			}
			if shown < 3 {
				fmt.Printf("  %s: %6.2f  via %s\n", x.Commodities[j].Name, p.Rate, pathString(x, p))
				shown++
			}
		}
		if extra := len(paths) - shown - 1; extra > 0 {
			fmt.Printf("  %s: (%d more paths)\n", x.Commodities[j].Name, extra)
		}
	}

	// 3. Replay in the queueing simulator with bursty arrivals.
	fmt.Println("\nstep 3 — replay under Poisson arrivals in the queue simulator")
	res, err := qsim.Run(eng.Routing(), qsim.Config{Ticks: 8000, Arrivals: qsim.Poisson, Seed: 7})
	if err != nil {
		return err
	}
	for j := range x.Commodities {
		fmt.Printf("  %s: delivered %.2f/tick (plan admitted %.2f), dropped %.2f\n",
			x.Commodities[j].Name, res.Delivered[j], sol.AdmittedRate(j), res.Dropped[j])
	}
	fmt.Printf("  queues: avg %.1f units, peak %.1f; mean sojourn ≈ %.1f ticks\n",
		res.AvgQueue, res.PeakQueue, res.AvgDelayTicks)
	fmt.Println("\nBounded queues + delivery matching the plan = the fluid optimum is deployable.")
	return nil
}

// pathString renders a path through original-graph node names, skipping
// the synthetic bandwidth and dummy nodes for readability.
func pathString(x *transform.Extended, p flow.PathFlow) string {
	s := ""
	for _, n := range p.Nodes {
		switch x.Kind(n) {
		case transform.Bandwidth, transform.Dummy:
			continue
		}
		if s != "" {
			s += "→"
		}
		s += x.Name(n)
	}
	return s
}
