// Dynamic tracking: the offered rates of a stream-processing system
// rarely hold still (§1 calls them "bursty and unpredictable"). This
// example modulates one commodity with a Markov-modulated rate process
// and re-runs the gradient algorithm each epoch, warm-started from the
// previous routing, showing how it tracks the moving optimum with a
// small per-epoch iteration budget.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/randnet"
	"repro/internal/refopt"
	"repro/internal/transform"
	"repro/internal/workload"
)

const (
	epochs     = 12
	iterBudget = 600 // gradient iterations per epoch
	seed       = 7
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// buildAt regenerates the fixed topology with commodity S1's offered
// rate set to lambda. The generator is deterministic, so everything
// except MaxRate is identical across epochs.
func buildAt(lambda float64) (*transform.Extended, error) {
	p, err := randnet.Generate(randnet.Config{
		Seed: seed, Nodes: 24, Commodities: 2,
		// Generous capacities and cheap operators so the optimum is
		// admission-limited at low offered rates and capacity-limited
		// at high ones — otherwise a single tiny bottleneck would make
		// every epoch look identical.
		CapMin: 40, CapMax: 100, CostMin: 1, CostMax: 2,
	})
	if err != nil {
		return nil, err
	}
	p.Commodities[0].MaxRate = lambda
	return transform.Build(p, transform.Options{Epsilon: 0.2})
}

func run() error {
	// A bursty source: dwell ~3 epochs in each of three load levels,
	// chosen so the lower levels are admission-limited (the optimum
	// moves with λ) and the top level saturates the network.
	source := workload.NewMMPP([]float64{5, 15, 35}, 3, 99)

	fmt.Printf("tracking a bursty source over %d epochs (%d gradient iterations each)\n\n",
		epochs, iterBudget)
	fmt.Printf("%-6s %-8s %-9s %-9s %-8s %s\n",
		"epoch", "lambda", "optimal", "achieved", "ratio", "")

	var carried *flow.Routing
	for epoch := 0; epoch < epochs; epoch++ {
		lambda := source.Rate(epoch)
		x, err := buildAt(lambda)
		if err != nil {
			return err
		}
		ref, err := refopt.Solve(x, refopt.Options{})
		if err != nil {
			return err
		}

		var eng *gradient.Engine
		if carried == nil {
			eng = gradient.New(x, gradient.Config{Eta: 0.1})
		} else if eng, err = gradient.NewFrom(x, carried, gradient.Config{Eta: 0.1}); err != nil {
			return err
		}
		if _, _, err := eng.Run(context.Background(), iterBudget, 0, new(gradient.DivergenceDetector), nil); err != nil {
			return err
		}
		carried = eng.Routing()

		u := eng.Solution()
		ratio := u.Utility() / ref.Utility
		fmt.Printf("%-6d %-8.0f %-9.2f %-9.2f %-8.2f %s\n",
			epoch, lambda, ref.Utility, u.Utility(), ratio, bar(ratio))
	}
	fmt.Println("\nThe routing carried across epochs keeps the system near the moving")
	fmt.Println("optimum even though each epoch's budget is far below a cold start's needs.")
	return nil
}

// bar renders a crude ratio gauge for terminal output.
func bar(ratio float64) string {
	n := int(ratio * 30)
	if n < 0 {
		n = 0
	}
	if n > 30 {
		n = 30
	}
	return strings.Repeat("#", n)
}
