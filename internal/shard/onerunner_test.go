package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

// refSolver is the unsharded solve loop written out in full, the
// reference a one-shard coordinator must reproduce bit for bit: build
// the whole problem, warm-start from the previous routing when it
// rebinds and cold otherwise, then check stationarity and, while it
// does not hold, step 25 iterations.
type refSolver struct {
	eta, tol float64
	maxIters int
	eng      *gradient.Engine
}

type refResult struct {
	utility    float64
	iterations int
	converged  bool
	warm       bool
	admitted   []float64
}

func (s *refSolver) solve(t *testing.T, p *stream.Problem) refResult {
	t.Helper()
	if len(p.Commodities) == 0 {
		s.eng = nil
		return refResult{converged: true}
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gradient.Config{Eta: s.eta}
	var res refResult
	var eng *gradient.Engine
	if s.eng != nil {
		eng, err = gradient.NewFrom(x, s.eng.Routing(), cfg)
		if err == nil {
			res.warm = true
		} else if !errors.Is(err, flow.ErrTopologyChanged) {
			t.Fatal(err)
		}
	}
	if eng == nil {
		eng = gradient.New(x, cfg)
	}
	s.eng = eng
	for {
		if eng.Stationarity() <= s.tol {
			res.converged = true
			break
		}
		if res.iterations >= s.maxIters {
			break
		}
		for i := 0; i < 25 && res.iterations < s.maxIters; i++ {
			eng.Step()
			res.iterations++
		}
	}
	u := eng.Usage()
	res.utility = u.Utility()
	for j := range x.Commodities {
		res.admitted = append(res.admitted, u.AdmittedRate(j))
	}
	return res
}

// TestOneRunnerMatchesReferenceLoop is the licence for serving every
// unsharded solve through the coordinator: over a scripted sequence of
// a rate change (warm), a departure and an arrival (cold), every
// commodity leaving and one returning, and a capacity cut and restore,
// a Shards: 1 coordinator and the reference loop agree on utility,
// iteration count, convergence, warm/cold and every admitted rate, bit
// for bit.
func TestOneRunnerMatchesReferenceLoop(t *testing.T) {
	instances := []struct {
		name string
		cfg  randnet.Config
		eta  float64
	}{
		{"paper-e4", randnet.Config{Seed: 2, Nodes: 40, Commodities: 3}, 0.04},
		{"many-commodity-e6", randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8}, 0.01},
		{"sweep-seed2", randnet.Config{Seed: 2, Nodes: 24, Commodities: 4}, 0.04},
		{"sweep-seed3", randnet.Config{Seed: 3, Nodes: 24, Commodities: 4}, 0.04},
		{"sweep-seed5", randnet.Config{Seed: 5, Nodes: 24, Commodities: 4}, 0.04},
	}
	const tol, maxIters = 1e-3, 1500
	for _, inst := range instances {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			t.Parallel()
			p, err := randnet.Generate(inst.cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, last := p.Commodities[0].Name, p.Commodities[len(p.Commodities)-1].Name
			spec := map[string][]byte{}
			for _, c := range p.Commodities {
				if spec[c.Name], err = p.MarshalCommodityJSON(c.Name); err != nil {
					t.Fatal(err)
				}
			}
			var node string
			for n, kind := range p.Net.Kinds {
				if kind == stream.Processing {
					node = p.Net.Names[n]
					break
				}
			}
			id, _ := p.Net.NodeByName(node)
			capacity := p.Net.Capacity[id]

			ref := &refSolver{eta: inst.eta, tol: tol, maxIters: maxIters}
			c := New(Config{Shards: 1, Eta: inst.eta, StationaryTol: tol, MaxIters: maxIters})
			step := func(label string, mutate func(p *stream.Problem) error) {
				t.Helper()
				p = p.Clone()
				if err := mutate(p); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := ref.solve(t, p)
				var got refResult
				if len(p.Commodities) == 0 {
					c.Clear(p)
					got.converged = true
				} else {
					warm, err := c.Apply(p, []bool{true})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					res := c.Solve(context.Background())
					got = refResult{utility: res.Utility, iterations: res.Iterations, converged: res.Converged, warm: warm}
					for _, cs := range c.commodities() {
						got.admitted = append(got.admitted, cs.Admitted)
					}
				}
				if got.utility != want.utility || got.iterations != want.iterations ||
					got.converged != want.converged || got.warm != want.warm {
					t.Fatalf("%s: coordinator (utility %v, %d iterations, converged %v, warm %v) vs reference (%v, %d, %v, %v)",
						label, got.utility, got.iterations, got.converged, got.warm,
						want.utility, want.iterations, want.converged, want.warm)
				}
				if len(got.admitted) != len(want.admitted) {
					t.Fatalf("%s: %d admitted rates vs %d", label, len(got.admitted), len(want.admitted))
				}
				for j := range want.admitted {
					if got.admitted[j] != want.admitted[j] {
						t.Fatalf("%s: commodity %d admitted %v vs reference %v", label, j, got.admitted[j], want.admitted[j])
					}
				}
			}
			add := func(name string) func(*stream.Problem) error {
				return func(p *stream.Problem) error {
					_, err := p.AddCommodityFromJSON(spec[name])
					return err
				}
			}
			remove := func(names ...string) func(*stream.Problem) error {
				return func(p *stream.Problem) error {
					for _, name := range names {
						if !p.RemoveCommodity(name) {
							return errors.New("unknown commodity " + name)
						}
					}
					return nil
				}
			}

			step("boot", func(*stream.Problem) error { return nil })
			step("rate change", func(p *stream.Problem) error { return p.SetMaxRate(first, p.Commodities[0].MaxRate/2) })
			step("departure", remove(last))
			step("arrival", add(last))
			var all []string
			for _, cm := range p.Commodities {
				all = append(all, cm.Name)
			}
			step("everyone leaves", remove(all...))
			step("one returns", add(first))
			step("capacity cut", func(p *stream.Problem) error { return p.Net.SetCapacity(node, capacity/2) })
			step("capacity restored", func(p *stream.Problem) error { return p.Net.SetCapacity(node, capacity) })
		})
	}
}

// rejectedToy is a two-server chain carrying c1 (worth admitting in
// full) and c2, whose utility is too flat to pay for any capacity: c2's
// admitted rate converges to exactly 0, so its offered rate is not what
// bounds it.
func rejectedToy(t *testing.T) *stream.Problem {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	net := stream.NewNetwork()
	a, err := net.AddServer("a", 10)
	must(err)
	b, err := net.AddServer("b", 10)
	must(err)
	t1, err := net.AddSink("t1")
	must(err)
	t2, err := net.AddSink("t2")
	must(err)
	ab, err := net.AddLink(a, b, 10)
	must(err)
	bt1, err := net.AddLink(b, t1, 10)
	must(err)
	bt2, err := net.AddLink(b, t2, 10)
	must(err)
	p := stream.NewProblem(net)
	c1, err := p.AddCommodity("c1", a, t1, 8, utility.Linear{Slope: 1})
	must(err)
	must(p.SetEdge(c1, ab, stream.EdgeParams{Beta: 1, Cost: 1}))
	must(p.SetEdge(c1, bt1, stream.EdgeParams{Beta: 1, Cost: 1}))
	c2, err := p.AddCommodity("c2", a, t2, 4, utility.Linear{Slope: 0.01})
	must(err)
	must(p.SetEdge(c2, ab, stream.EdgeParams{Beta: 1, Cost: 1}))
	must(p.SetEdge(c2, bt2, stream.EdgeParams{Beta: 1, Cost: 1}))
	must(p.Validate())
	return p
}

// TestSolveBeginningStationaryCostsNoIteration: raising the offered
// rate of a commodity the optimum rejects changes nothing about the
// operating point, so the warm re-solve begins stationary. The runner
// checks before its first block of iterations and reports convergence
// at zero iterations (the solve loop this replaced stepped 25 times
// before it first looked).
func TestSolveBeginningStationaryCostsNoIteration(t *testing.T) {
	p := rejectedToy(t)
	c := New(Config{Shards: 1})
	if _, err := c.Apply(p, []bool{true}); err != nil {
		t.Fatal(err)
	}
	if res := c.Solve(context.Background()); !res.Converged || res.Iterations == 0 {
		t.Fatalf("boot solve: converged %v after %d iterations", res.Converged, res.Iterations)
	}
	before := c.commodities()
	if before[1].Admitted != 0 {
		t.Fatalf("c2 admitted %v, want 0 (the case needs a rejected commodity)", before[1].Admitted)
	}

	next := p.Clone()
	if err := next.SetMaxRate("c2", 6); err != nil {
		t.Fatal(err)
	}
	warm, err := c.Apply(next, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Solve(context.Background())
	if !warm || !res.Converged || res.Iterations != 0 {
		t.Fatalf("re-solve: warm %v, converged %v, %d iterations; want warm, converged, 0", warm, res.Converged, res.Iterations)
	}
	after := c.commodities()
	if after[0].Admitted != before[0].Admitted || after[1].Admitted != 0 || after[1].Offered != 6 {
		t.Fatalf("operating point moved: %+v → %+v", before, after)
	}
}

// TestStationarySweepIsFree: a four-shard cold solve converges at
// tolerance 1e-4 within a budget of 4 × 12 000 iterations (measured:
// 17 425 in the paper mode, 4 025 in the serving mode), and a solve
// that begins stationary is one sweep of stationarity checks, usage
// merges and external-usage installs: one round, no iteration, no
// allocation.
func TestStationarySweepIsFree(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 24, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, serving := range []bool{false, true} {
		t.Run(fmt.Sprintf("serving=%v", serving), func(t *testing.T) {
			c := New(Config{Shards: 4, Salt: 7, Eta: 0.04, MaxIters: 48000, StationaryTol: 1e-4, Serving: serving})
			if _, err := c.Apply(p, []bool{true, true, true, true}); err != nil {
				t.Fatal(err)
			}
			res := c.Solve(context.Background())
			t.Logf("cold solve: %d iterations, %d rounds", res.Iterations, res.Rounds)
			if res.Err != nil || !res.Converged {
				t.Fatalf("cold solve: converged %v after %d iterations, err %v", res.Converged, res.Iterations, res.Err)
			}
			allocs := mallocs(20, func() { res = c.Solve(context.Background()) })
			if !res.Converged || res.Rounds != 1 || res.Iterations != 0 {
				t.Fatalf("stationary solve: converged %v in %d rounds and %d iterations; want converged in 1 round, 0 iterations",
					res.Converged, res.Rounds, res.Iterations)
			}
			if allocs != 0 {
				t.Fatalf("20 stationary solves allocate %d objects, want 0", allocs)
			}
		})
	}
}

// TestStitchAfterRemovalUnderCleanShard: a departure shifts the global
// index of every later commodity, including those on shards the
// departure does not dirty. Their results must still land on the right
// rows of Explain().
func TestStitchAfterRemovalUnderCleanShard(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	if err != nil {
		t.Fatal(err)
	}
	const shards, salt = 4, 7
	c := New(Config{Shards: shards, Salt: salt, Eta: 0.01, MaxIters: 500})
	all := []bool{true, true, true, true}
	if _, err := c.Apply(p, all); err != nil {
		t.Fatal(err)
	}
	c.Solve(context.Background())
	before := map[string]float64{}
	for _, cs := range c.commodities() {
		before[cs.Name] = cs.Admitted
	}

	// Remove the first commodity: everything after it moves up one row.
	gone := p.Commodities[0].Name
	owner := Place(gone, salt, shards)
	next := p.Clone()
	next.RemoveCommodity(gone)
	shifted := 0
	for _, cm := range next.Commodities {
		if Place(cm.Name, salt, shards) != owner {
			shifted++
		}
	}
	if shifted == 0 {
		t.Fatal("every commodity shares the departing one's shard; nothing clean to shift")
	}
	dirty := make([]bool, shards)
	dirty[owner] = true
	if _, err := c.Apply(next, dirty); err != nil {
		t.Fatal(err)
	}

	// Before any further iteration the clean shards still hold the rates
	// they reported last; each must appear under its own name.
	for gi, cs := range c.commodities() {
		if cs.Name != next.Commodities[gi].Name {
			t.Fatalf("row %d is %q, want %q", gi, cs.Name, next.Commodities[gi].Name)
		}
		if Place(cs.Name, salt, shards) != owner && cs.Admitted != before[cs.Name] {
			t.Errorf("row %d (%s, clean shard): admitted %v, was %v before the departure", gi, cs.Name, cs.Admitted, before[cs.Name])
		}
	}

	c.Solve(context.Background())
	explain := c.Explain()
	if len(explain) != len(next.Commodities) {
		t.Fatalf("%d explanations for %d commodities", len(explain), len(next.Commodities))
	}
	for gi, cm := range next.Commodities {
		if explain[gi].Name != cm.Name {
			t.Fatalf("row %d: explanation %q, want %q", gi, explain[gi].Name, cm.Name)
		}
	}
	// Each row admits what the owning shard's engine admits.
	for _, r := range c.runners {
		if r.eng == nil {
			continue
		}
		for j, gi := range r.global {
			if a := r.eng.Usage().AdmittedRate(j); explain[gi].Admitted != a {
				t.Errorf("row %d (%s): explanation admits %v, shard %d's engine %v", gi, explain[gi].Name, explain[gi].Admitted, r.id, a)
			}
		}
	}
}
