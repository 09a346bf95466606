package shard

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gradient"
	"repro/internal/journal"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
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
// entry. Counts, unlike timings, do not depend on the host. A bare
// usage's explanation prices it in a fresh arena, which holds the sweep
// vectors and none of the wave's (11 allocations). The coordinator
// explains every shard in its engine's own, so it allocates only the
// output, the parts and the binding lists: 6 at J=1000, 7 at J=250,
// where the binding list outgrows its first J entries once. The two
// explanation bounds leave one more for what the runtime allocates
// during a GC in the loop, which -race showed once in 65 runs.
func TestPublishAllocationBudget(t *testing.T) {
	const budget, bareExplainBudget, explainBudget = 16, 12, 8
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
		for name, call := range map[string]struct {
			f     func()
			bound float64
		}{
			"core.Explain":            {func() { core.Explain(p, x, u) }, bareExplainBudget},
			"core.UsageReport":        {func() { core.UsageReport(p, x, u) }, budget},
			"Coordinator.Explain":     {func() { c.Explain() }, explainBudget},
			"Coordinator.UsageReport": {func() { c.UsageReport() }, budget},
		} {
			const runs = 10
			if n := float64(mallocs(runs, call.f)) / runs; n > call.bound {
				t.Errorf("J=%d: %s allocates %.1f times per call, budget %.0f", j, name, n, call.bound)
			}
		}
	}
}

// mallocs counts the heap allocations of runs calls of f after one
// warm-up call, at GOMAXPROCS 1 as testing.AllocsPerRun measures, in
// total: AllocsPerRun's integer mean reads a few allocations spread
// over many runs as 0. A full GC after the warm-up call keeps a cycle
// the warm-up started from allocating inside the measured window.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestShardedExplainUtilizationIsGlobal: a shard's binding server is
// reported at its global load, own flow plus what the other shards
// route through it, which is the load /v1/usage reports for it, and is
// priced at that load: ε·D'(usage) to rounding. Shard-local flow alone
// read a fraction of the usage figure. The second solve is drained
// during shard 1's turn, after shard 0 has stepped: shard 0's prices
// from its own turn then predate the flow shard 1 moved, and pricing at
// them would read a load the shards have left.
func TestShardedExplainUtilizationIsGlobal(t *testing.T) {
	_, c := sparseCoordinator(t, 1000)
	checkExplainIsGlobal(t, c, "first solve")
	if res := c.Solve(&countdown{Context: context.Background(), n: 1 + exchangeEvery + 10}); !res.Drained {
		t.Fatalf("second solve not drained: %+v", res)
	}
	checkExplainIsGlobal(t, c, "drained solve")
}

// checkExplainIsGlobal holds every server binding of c.Explain() to the
// usage report's load for that server.
func checkExplainIsGlobal(t *testing.T, c *Coordinator, label string) {
	t.Helper()
	usage := map[string]core.NodeUsage{}
	for _, nu := range c.UsageReport() {
		usage[nu.Name] = nu
	}
	eps := c.runners[0].x.Epsilon
	servers := 0
	for _, ce := range c.Explain() {
		for _, b := range ce.Binding {
			if b.Kind != "server" {
				continue
			}
			servers++
			nu, ok := usage[b.Name]
			if !ok {
				t.Fatalf("%s: %s: binding server %s is not in the usage report", label, ce.Name, b.Name)
			}
			if math.Abs(b.Utilization-nu.Utilization) > 1e-12 {
				t.Fatalf("%s: %s: server %s utilization %.15g in the attribution, %.15g in the usage report",
					label, ce.Name, b.Name, b.Utilization, nu.Utilization)
			}
			if want := eps * (utility.Reciprocal{}).Deriv(nu.Usage, nu.Capacity); math.Abs(b.Price-want) > 1e-9*want {
				t.Fatalf("%s: %s: server %s priced %.15g in the attribution, %.15g at the reported usage",
					label, ce.Name, b.Name, b.Price, want)
			}
		}
	}
	if servers == 0 {
		t.Fatalf("%s: no server binding to compare: the instance is not congested", label)
	}
}

// countdown is a context that reports itself cancelled from its n+1th
// Err call on: a drain at a fixed point of a solve.
type countdown struct {
	context.Context
	n int
}

func (c *countdown) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestExplainMovesNoTrajectory: Explain attributes in each shard's
// engine workspaces, installing the external usage again and taking
// the node pass the next step would take, so explaining after every
// solve leaves every later solve where it would have been. Two twin
// coordinators, at 1 and 4 shards, in the paper and the serving mode,
// run one script — a rate change, an arrival, a departure and a
// capacity cut — and one explains after every solve while the other
// never does: the φ rows, η, the iteration counts and the convergence
// flags agree bit for bit after each solve. The budget lets some
// solves converge and leaves others at it.
func TestExplainMovesNoTrajectory(t *testing.T) {
	full, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	if err != nil {
		t.Fatal(err)
	}
	arriving := full.Commodities[7].Name
	spec, err := full.MarshalCommodityJSON(arriving)
	if err != nil {
		t.Fatal(err)
	}
	var node string
	for i, kind := range full.Net.Kinds {
		if kind == stream.Processing {
			node = full.Net.Names[i]
			break
		}
	}
	for _, shards := range []int{1, 4} {
		for _, serving := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d,serving=%v", shards, serving), func(t *testing.T) {
				cfg := Config{Shards: shards, Salt: 7, Eta: 0.04, MaxIters: 2000, StationaryTol: 1e-2, Serving: serving}
				explained, plain := New(cfg), New(cfg)
				p := full.NewVersion()
				if !p.RemoveCommodity(arriving) {
					t.Fatalf("no commodity %s to hold back", arriving)
				}
				c0, c2 := p.Commodities[0], p.Commodities[2]
				for _, step := range []struct {
					label string
					ms    []journal.Mutation
				}{
					{"boot", nil},
					{"rate change", []journal.Mutation{journal.SetRate(c0.Name, 1.5*c0.MaxRate)}},
					{"arrival", []journal.Mutation{journal.AddCommodity(spec)}},
					{"departure", []journal.Mutation{journal.RemoveCommodity(c2.Name)}},
					{"capacity cut", []journal.Mutation{journal.ScaleCapacity(node, 0.5)}},
				} {
					next := p.NewVersion()
					for i := range step.ms {
						if err := journal.Apply(next, &step.ms[i]); err != nil {
							t.Fatalf("%s: %v", step.label, err)
						}
					}
					p = next
					var results [2]Result
					for i, c := range []*Coordinator{explained, plain} {
						if _, err := c.Apply(p, nil); err != nil {
							t.Fatalf("%s: %v", step.label, err)
						}
						results[i] = c.Solve(context.Background())
					}
					explained.Explain()
					if e, q := results[0], results[1]; e.Iterations != q.Iterations || e.Converged != q.Converged ||
						math.Float64bits(e.Utility) != math.Float64bits(q.Utility) {
						t.Fatalf("%s: %d iterations, converged %v, utility %v with Explain; %d, %v, %v without",
							step.label, e.Iterations, e.Converged, e.Utility, q.Iterations, q.Converged, q.Utility)
					}
					for k, r := range explained.runners {
						q := plain.runners[k]
						if r.eta() != q.eta() {
							t.Fatalf("%s: shard %d at η %v with Explain, %v without", step.label, k, r.eta(), q.eta())
						}
						if r.eng == nil {
							continue
						}
						for j, row := range r.eng.Routing().Phi {
							for le, v := range row {
								if w := q.eng.Routing().Phi[j][le]; math.Float64bits(v) != math.Float64bits(w) {
									t.Fatalf("%s: shard %d commodity %d φ[%d] = %v with Explain, %v without",
										step.label, k, j, le, v, w)
								}
							}
						}
					}
				}
			})
		}
	}
}
