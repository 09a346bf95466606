package gradient

import (
	"math"
	"testing"

	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

// TestRestartMatchesRebuildAndRebind: after a change of parameters
// alone, reparameterizing the extended problem in place and restarting
// the engine on it walks the trajectory of the path it stands in for —
// Build on the new problem, then NewFrom with the old routing — bit for
// bit: every StepInfo, the routing, η and the backtrack count, at fixed
// η and under Backtrack. Step control has moved η and its counters by
// the time of the change; a Restart keeps that η and drops the counters,
// which is what NewFrom gives when started at the η the engine reached.
func TestRestartMatchesRebuildAndRebind(t *testing.T) {
	for _, cfg := range []Config{{Eta: 0.04}, {Eta: 0.5, Backtrack: true}} {
		// The fixed-η name keeps its "/workers=1" suffix, so that its
		// ID matches earlier test reports.
		name := "fixed/workers=1"
		if cfg.Backtrack {
			name = "backtrack"
		}
		t.Run(name, func(t *testing.T) {
			p := generate(t, randnet.Config{Seed: 11, Nodes: 24, Commodities: 4})
			all := []int{0, 1, 2, 3}
			kept := New(build(t, p, all), cfg)
			rebuilt := New(build(t, p, all), cfg)
			step := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					for j := range kept.Routing().Phi {
						if a, b := kept.Routing().AdmittedRate(j), rebuilt.Routing().AdmittedRate(j); math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("step %d commodity %d: admitted %v vs %v", i, j, a, b)
						}
					}
					a, b := kept.Step(), rebuilt.Step()
					if a.Iteration != b.Iteration || math.Float64bits(a.Utility) != math.Float64bits(b.Utility) ||
						math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || a.Feasible != b.Feasible {
						t.Fatalf("step %d: kept engine %+v, rebuilt engine %+v", i, a, b)
					}
				}
				if kept.Eta() != rebuilt.Eta() || kept.Backtracks() != rebuilt.Backtracks() || kept.Stats() != rebuilt.Stats() {
					t.Fatalf("step control apart: η %v vs %v, %d vs %d backtracks, stats %+v vs %+v",
						kept.Eta(), rebuilt.Eta(), kept.Backtracks(), rebuilt.Backtracks(), kept.Stats(), rebuilt.Stats())
				}
				for j, row := range kept.Routing().Phi {
					for le, v := range row {
						if math.Float64bits(v) != math.Float64bits(rebuilt.Routing().Phi[j][le]) {
							t.Fatalf("routing apart at commodity %d edge %d", j, le)
						}
					}
				}
			}
			step(130)
			if cfg.Backtrack && kept.Backtracks() == 0 {
				t.Fatal("η 0.5 never backtracked; the case needs step control to have moved")
			}

			changes := []func(p *stream.Problem) error{
				func(p *stream.Problem) error {
					return p.SetMaxRate(p.Commodities[1].Name, 1.7*p.Commodities[1].MaxRate)
				},
				func(p *stream.Problem) error {
					return p.SetUtility(p.Commodities[2].Name, utility.Log{Weight: 4, Scale: 1})
				},
				func(p *stream.Problem) error {
					for i, kind := range p.Net.Kinds {
						if kind == stream.Processing {
							return p.Net.SetCapacity(p.Net.Names[i], 0.6*p.Net.Capacity[i])
						}
					}
					return nil
				},
				func(p *stream.Problem) error {
					e := p.Net.G.Edge(0)
					return p.Net.SetBandwidth(p.Net.Names[e.From], p.Net.Names[e.To], 0.5*p.Net.Bandwidth[0])
				},
			}
			for i, change := range changes {
				p = p.NewVersion()
				if err := change(p); err != nil {
					t.Fatal(err)
				}
				if ch, err := kept.X.Changes(p, all); ch != transform.Parameters || err != nil {
					t.Fatalf("change %d: Changes = %v, %v", i, ch, err)
				}
				kept.X.Reparameterize(p, all)
				kept.Restart()
				carried := cfg
				carried.Eta = rebuilt.Eta()
				next, err := NewFrom(build(t, p, all), rebuilt.Routing(), carried)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt = next
				step(60)
			}
		})
	}
}
