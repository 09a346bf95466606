package shard

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gradient"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
)

// sparseCoordinator boots a four-shard serving coordinator on the
// sparse instance family with the admission benchmark's solver settings
// and runs its first solve.
func sparseCoordinator(t *testing.T, commodities int) (*stream.Problem, *Coordinator) {
	t.Helper()
	p, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: commodities})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Shards: 4, Salt: 7, Eta: 0.005, MaxIters: 400, StationaryTol: 5e-3, Serving: true})
	if _, err := c.Apply(p, []bool{true, true, true, true}); err != nil {
		t.Fatal(err)
	}
	if res := c.Solve(context.Background()); res.Err != nil {
		t.Fatal(res.Err)
	}
	return p, c
}

// TestPublishAllocationBudget holds the reports a snapshot publishes to
// a fixed number of allocations, whatever J: each allocates its output
// and a few scratch vectors, nothing per commodity and nothing per
// entry. Counts, unlike timings, do not depend on the host.
func TestPublishAllocationBudget(t *testing.T) {
	const budget = 16
	for _, j := range []int{250, 1000} {
		p, c := sparseCoordinator(t, j)
		x, err := transform.Build(p, transform.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng := gradient.New(x, gradient.Config{Eta: 0.005})
		for i := 0; i < 100; i++ {
			eng.Step()
		}
		u := eng.Solution()
		for name, f := range map[string]func(){
			"core.Explain":            func() { core.Explain(p, x, u) },
			"core.UsageReport":        func() { core.UsageReport(p, x, u) },
			"Coordinator.Explain":     func() { c.Explain() },
			"Coordinator.UsageReport": func() { c.UsageReport() },
		} {
			if n := testing.AllocsPerRun(3, f); n > budget {
				t.Errorf("J=%d: %s allocates %.0f times per call, budget %d", j, name, n, budget)
			}
		}
	}
}

// TestShardedExplainUtilizationIsGlobal: a shard's binding server is
// reported at its global load, own flow plus what the other shards
// route through it, which is the load /v1/usage reports for it and the
// one its price is taken at. Shard-local flow alone read a fraction of
// the usage figure.
func TestShardedExplainUtilizationIsGlobal(t *testing.T) {
	_, c := sparseCoordinator(t, 1000)
	usage := map[string]float64{}
	for _, nu := range c.UsageReport() {
		usage[nu.Name] = nu.Utilization
	}
	servers := 0
	for _, ce := range c.Explain() {
		for _, b := range ce.Binding {
			if b.Kind != "server" {
				continue
			}
			servers++
			want, ok := usage[b.Name]
			if !ok {
				t.Fatalf("%s: binding server %s is not in the usage report", ce.Name, b.Name)
			}
			if math.Abs(b.Utilization-want) > 1e-12 {
				t.Fatalf("%s: server %s utilization %.15g in the attribution, %.15g in the usage report",
					ce.Name, b.Name, b.Utilization, want)
			}
		}
	}
	if servers == 0 {
		t.Fatal("no server binding to compare: the instance is not congested")
	}
}
