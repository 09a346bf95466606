package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/journal"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
)

// TestServingPatchedEqualsRebuilt is TestPatchedEqualsRebuilt in the
// serving mode, at 1 and 4 shards: the coordinator that reparameterizes
// in place (HoldAdmitted on the routing it keeps, Engine.Restart keeping
// η) and the one that rebuilds every changed shard (gradient.Carry started
// at the η the last engine reached) agree bit for bit on every result,
// admitted rate, iteration count and η, through rates up and down, a
// batch, a capacity fault and its restore, and a departure and identical
// re-arrival coalesced into one decision; and then through the changes
// that rebuild both, where the survivors carry over.
func TestServingPatchedEqualsRebuilt(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
			if err != nil {
				t.Fatal(err)
			}
			const eta0 = 0.04
			tw := newTwinWith(t, p, Config{Shards: shards, Salt: 7, Eta: eta0, MaxIters: 300, Serving: true})
			moved := false
			for _, r := range tw.patched.runners {
				moved = moved || (r.eng != nil && r.eng.Eta() != eta0)
			}
			if !moved {
				t.Fatal("no engine moved η off its initial value; the case needs step control to have acted")
			}
			name := func(i int) string { return tw.p.Commodities[i].Name }
			rate := func(i int, f float64) float64 { return f * tw.p.Commodities[i].MaxRate }
			spec := func(n string) []byte {
				b, err := tw.p.MarshalCommodityJSON(n)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			var node string
			for i, kind := range p.Net.Kinds {
				if kind == stream.Processing {
					node = p.Net.Names[i]
					break
				}
			}

			for _, step := range []struct {
				label string
				ms    []journal.Mutation
			}{
				{"rate up", []journal.Mutation{journal.SetRate(name(0), rate(0, 1.5))}},
				{"rate down", []journal.Mutation{journal.SetRate(name(0), rate(0, 0.3))}},
				{"rates batch", []journal.Mutation{journal.SetRates(map[string]float64{
					name(1): rate(1, 1.2), name(2): rate(2, 0.6), name(5): rate(5, 1.1)})}},
				{"capacity cut", []journal.Mutation{journal.ScaleCapacity(node, 0.5)}},
				{"capacity restore", []journal.Mutation{journal.ScaleCapacity(node, 2)}},
				{"depart + identical re-arrival", []journal.Mutation{
					journal.RemoveCommodity(name(7)), journal.AddCommodity(spec(name(7)))}},
			} {
				if slices.Contains(kept(tw.decide(step.label, step.ms...)), false) {
					t.Errorf("%s: a shard was rebuilt for a change of parameters", step.label)
				}
			}

			first := name(0)
			tw.decide("depart + re-arrival elsewhere in the order",
				journal.RemoveCommodity(first), journal.AddCommodity(spec(first)))
			gone := name(2)
			goneSpec := spec(gone)
			tw.decide("departure", journal.RemoveCommodity(gone))
			tw.decide("arrival", journal.AddCommodity(goneSpec))
			// Only the arrival's owner shard rebound, so its start is the
			// decision's.
			if !tw.warm {
				t.Errorf("shard %d started cold after an arrival; its other commodities should carry over", Place(gone, tw.salt, shards))
			}
		})
	}
}

// converged solves c until it reports convergence, failing the test if
// that takes more than a few budgets.
func converged(t *testing.T, c *Coordinator) Result {
	t.Helper()
	for range 8 {
		if res := c.Solve(context.Background()); res.Converged {
			return res
		} else if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	t.Fatal("no convergence within 8 budgets")
	return Result{}
}

// TestRateSpaceWarmStart: in the serving mode a new offered rate moves
// only the commodity's dummy split, so that its admitted rate stays where
// it was while the new rate covers it. From a converged operating point,
// on the paper's E4 instance and on the sparse J=1k one:
//   - a rate increase of a commodity the optimum does not fully admit
//     changes no node's flow and publishes with 0 iterations and the same
//     admitted rates (a_j < λ leaves the optimum optimal);
//   - a decrease below a commodity's admitted rate admits the new rate
//     in full;
//   - no node's forecast flow rises from either change, where carrying φ
//     unchanged would scale the commodity's flow with the rate.
func TestRateSpaceWarmStart(t *testing.T) {
	instances := []struct {
		name string
		gen  func() (*stream.Problem, error)
		tol  float64
		// cuts bounds the rate cuts tried: each moves the optimum, and at
		// J=1k takes hundreds of iterations to follow.
		cuts int
	}{
		{"E4", func() (*stream.Problem, error) {
			return randnet.Generate(randnet.Config{Seed: 2, Nodes: 40, Commodities: 3})
		}, 1e-3, 3},
		{"sparse-J1k", func() (*stream.Problem, error) {
			return randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 1000})
		}, 5e-3, 2},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			p, err := inst.gen()
			if err != nil {
				t.Fatal(err)
			}
			c := New(Config{Shards: 1, Serving: true, StationaryTol: inst.tol, MaxIters: 4000})
			if _, err := c.Apply(p, []bool{true}); err != nil {
				t.Fatal(err)
			}
			converged(t, c)
			r := c.runners[0]

			// flows returns the forecast the engine would start from.
			flows := func() []float64 { return slices.Clone(r.eng.Usage().FNode) }
			change := func(label string, gi int, rate float64) (before, after []commodityState, res Result) {
				t.Helper()
				before, f0 := c.commodities(), flows()
				next := p.NewVersion()
				if err := next.SetMaxRate(p.Commodities[gi].Name, rate); err != nil {
					t.Fatal(err)
				}
				p = next
				if warm, err := c.Apply(p, []bool{true}); err != nil || !warm {
					t.Fatalf("%s: apply: warm %v, %v", label, warm, err)
				}
				// Dummy nodes carry λ by definition; the network is the
				// shared prefix.
				for i, f := range flows()[:r.x.SharedNodes] {
					if f > f0[i]*(1+1e-12)+1e-15 {
						t.Fatalf("%s: node %d forecast flow rose %v → %v", label, i, f0[i], f)
					}
				}
				res = converged(t, c)
				return before, c.commodities(), res
			}

			// The first of each kind, in instance order.
			var partial, admitted []int
			for gi, cs := range c.commodities() {
				if cs.Admitted < cs.Offered*(1-1e-3) && len(partial) < 8 {
					partial = append(partial, gi)
				}
				if cs.Admitted > 1e-3 && len(admitted) < inst.cuts {
					admitted = append(admitted, gi)
				}
			}
			if len(partial) == 0 || len(admitted) == 0 {
				t.Fatalf("%d partially admitted, %d admitted commodities; the case needs both", len(partial), len(admitted))
			}
			for _, gi := range partial {
				label := fmt.Sprintf("raise %s", p.Commodities[gi].Name)
				before, after, res := change(label, gi, 1.5*p.Commodities[gi].MaxRate)
				if res.Iterations != 0 {
					t.Errorf("%s: %d iterations, want 0", label, res.Iterations)
				}
				for k := range before {
					if d := math.Abs(after[k].Admitted - before[k].Admitted); d > 1e-12*max(1, before[k].Admitted) {
						t.Errorf("%s: %s admitted %v → %v", label, before[k].Name, before[k].Admitted, after[k].Admitted)
					}
				}
			}
			for _, gi := range admitted {
				label := fmt.Sprintf("cut %s", p.Commodities[gi].Name)
				a := c.commodities()[gi].Admitted
				_, after, _ := change(label, gi, a/2)
				if got := after[gi].Admitted; math.Abs(got-a/2) > 1e-9*a {
					t.Errorf("%s below its admitted rate %v: admits %v, want %v", label, a, got, a/2)
				}
			}
		})
	}
}

// TestArrivalKeepsSurvivorsWarm: a decision that takes a commodity away
// and brings it back on another edge set rebuilds the shard, and in the
// serving mode the other commodities keep their routing rows bit for bit,
// the engine keeps its η, and only the re-arrival starts from
// flow.NewInitial's row.
func TestArrivalKeepsSurvivorsWarm(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 24, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Shards: 1, Serving: true, MaxIters: 500})
	if _, err := c.Apply(p, []bool{true}); err != nil {
		t.Fatal(err)
	}
	c.Solve(context.Background())
	r := c.runners[0]
	rows := map[string][]float64{}
	for j, cm := range r.x.Commodities {
		rows[cm.Name] = slices.Clone(r.eng.Routing().Phi[j])
	}
	eta := r.eng.Eta()

	victim := p.Commodities[1].Name
	next := p.NewVersion()
	for _, m := range []journal.Mutation{journal.RemoveCommodity(victim), journal.AddCommodity(otherEdges(t, p, victim))} {
		if err := journal.Apply(next, &m); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := c.Apply(next, []bool{true})
	if err != nil || !warm {
		t.Fatalf("apply: warm %v, %v", warm, err)
	}
	if r.eng.Eta() != eta {
		t.Errorf("η %v after the rebuild, %v before", r.eng.Eta(), eta)
	}
	initial := flow.NewInitial(r.x)
	for j, cm := range r.x.Commodities {
		want := rows[cm.Name]
		if cm.Name == victim {
			want = initial.Phi[j]
		}
		if got := r.eng.Routing().Phi[j]; !slices.Equal(got, want) {
			t.Errorf("%s: row %v, want %v", cm.Name, got, want)
		}
	}
	if res := c.Solve(context.Background()); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// otherEdges is the named commodity's spec without one of its edges,
// the first whose removal leaves a problem that still builds.
func otherEdges(t *testing.T, p *stream.Problem, name string) []byte {
	t.Helper()
	orig, err := p.MarshalCommodityJSON(name)
	if err != nil {
		t.Fatal(err)
	}
	var probe map[string]any
	if err := json.Unmarshal(orig, &probe); err != nil {
		t.Fatal(err)
	}
	for k := range probe["edges"].([]any) {
		var spec map[string]any
		if err := json.Unmarshal(orig, &spec); err != nil {
			t.Fatal(err)
		}
		edges := spec["edges"].([]any)
		spec["edges"] = append(edges[:k:k], edges[k+1:]...)
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		q := p.NewVersion()
		q.RemoveCommodity(name)
		if _, err := q.AddCommodityFromJSON(b); err != nil {
			continue
		}
		if New(Config{Shards: 1}).Build(q, []bool{true}) == nil {
			return b
		}
	}
	t.Fatalf("%s: every edge is needed", name)
	return nil
}

// TestServingRunsWithoutTags: on the benchmark's §6 instance the
// loop-freedom tags hold the iteration short of the optimum — at utility
// 38.54, where without them it reaches 39.57 — and the serving mode runs
// without them. (Member subgraphs are DAGs: no routing on them can loop.)
func TestServingRunsWithoutTags(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 42, Nodes: 40, Commodities: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Shards: 1, Serving: true})
	if _, err := c.Apply(p, []bool{true}); err != nil {
		t.Fatal(err)
	}
	res := c.Solve(context.Background())

	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tagged := gradient.New(x, gradient.Config{Backtrack: true})
	if _, _, err := tagged.Run(context.Background(), res.Iterations, 0, new(gradient.DivergenceDetector), nil); err != nil {
		t.Fatal(err)
	}
	if got, trapped := res.Utility, tagged.Usage().Utility(); got < 1.02*trapped {
		t.Fatalf("serving mode reaches utility %v in %d iterations, a tagged engine %v", got, res.Iterations, trapped)
	}
}

// TestTurnStartDropsCarriedEvaluation: a serving engine carries the
// cost, feasibility and node prices of its last accepted step into the
// next one, and they were taken at the external usage installed then.
// Every turn rewrites the other shards' external usage, so a turn must
// start by dropping them (runner.step's Engine.SetExternal). At two
// shards a solve must therefore equal, bit for bit, the same turns
// driven one iteration at a time with the carried evaluation dropped
// before every iteration — routing, utility and admitted rates per
// shard.
func TestTurnStartDropsCarriedEvaluation(t *testing.T) {
	p, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 400})
	if err != nil {
		t.Fatal(err)
	}
	// Stationarity checks off: every turn spends its 25 iterations.
	cfg := Config{Shards: 2, Salt: 7, Eta: 0.5, MaxIters: 300, StationaryTol: -1, Serving: true}
	got, want := New(cfg), New(cfg)
	for _, c := range []*Coordinator{got, want} {
		if _, err := c.Apply(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	res := got.Solve(context.Background())
	if res.Err != nil || res.Iterations != cfg.MaxIters {
		t.Fatalf("solve: %d iterations, err %v", res.Iterations, res.Err)
	}

	// Solve's sweeps, written out with every iteration its own step. A
	// step that lowers η is one step control rejected.
	ctx := context.Background()
	anyX := want.runners[0].x
	rejected := 0
	for spent := 0; spent < cfg.MaxIters; {
		for _, r := range want.runners {
			n := min(exchangeEvery, cfg.MaxIters-spent)
			for i := 0; i < n; i++ {
				r.eng.SetExternal(r.ext)
				eta := r.eng.Eta()
				r.advance(ctx, 1)
				if r.eng.Eta() < eta {
					rejected++
				}
			}
			spent += n
			want.merge()
			want.updateExternals(anyX)
		}
	}

	for s, g := range got.runners {
		w := want.runners[s]
		if g.eng == nil || w.eng == nil {
			t.Fatalf("shard %d has no engine", s)
		}
		gu, wu := g.eng.Usage(), w.eng.Usage()
		if gu.Utility() != wu.Utility() {
			t.Fatalf("shard %d: utility %v, one-step turns %v", s, gu.Utility(), wu.Utility())
		}
		for j := range w.global {
			if gu.AdmittedRate(j) != wu.AdmittedRate(j) {
				t.Fatalf("shard %d commodity %d: admitted %v, one-step turns %v", s, j, gu.AdmittedRate(j), wu.AdmittedRate(j))
			}
		}
		for j, row := range w.eng.Routing().Phi {
			if !slices.Equal(g.eng.Routing().Phi[j], row) {
				t.Fatalf("shard %d commodity %d: routing differs from the one-step turns", s, j)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no step was rejected; the case needs step control to have acted")
	}
}
