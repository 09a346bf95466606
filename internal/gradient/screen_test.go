package gradient

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

// TestScreenSkipsOnlyRowsGammaKeeps is the screen's soundness check:
// before every step of a serving engine, each row the screen is about
// to skip is one a full sweep and Γ — heavy-ball term included — would
// return bit for bit, and so is each row the wave re-screens from its
// sweep (an expired screen that the sweep renews); after it, no row's
// bound is negative and the forecast the wave left is a fresh one's,
// dummy nodes included; and at every turn start Engine.Stationarity,
// which skips the screened rows, reports exactly the reference model's
// gap (refStationarity) on a fresh forecast at the same external usage.
// External usage is rewritten in place and installed again
// (Engine.SetExternal) every 25 steps, the way a coordinator's turns
// rewrite it. The instances are random layered
// networks (randomExtended), the branched instance of
// TestServingStepMatchesReferenceStep, and a small sparse instance,
// with and without momentum. The layered networks settle in the
// interior of their simplices, where nothing is screened, so two in
// three of the random ones' commodities are polarized toward rejection
// or full admission, and every one of the branched instance's toward
// rejection (polarize): while any of its commodities moves, the prices
// move too fast for its deep rows' screens. The screen must skip rows
// on the layered networks and on the sparse instance, and the sparse
// instance must re-screen rows from their sweep, or the check checks
// nothing there.
func TestScreenSkipsOnlyRowsGammaKeeps(t *testing.T) {
	type instance struct {
		name string
		x    *transform.Extended
	}
	var cases []instance
	for seed := int64(1); seed <= 10; seed++ {
		x := randomExtended(t, seed)
		polarize(x, []float64{1e-3, 20, 0}, int(seed))
		cases = append(cases, instance{fmt.Sprintf("random%d", seed), x})
	}
	branched, sparse := generate(t, randnet.Config{Seed: 5, Nodes: 40, Layers: 5, Commodities: 6}), sparseProblem(t, 200)
	for _, p := range []struct {
		name string
		p    *stream.Problem
	}{{"branched", branched}, {"sparse", sparse}} {
		x := build(t, p.p, nil)
		if p.name == "branched" {
			polarize(x, []float64{1e-3}, 0)
		}
		cases = append(cases, instance{p.name, x})
	}
	screened, rescreened := map[string]int{}, map[string]int{}
	for _, c := range cases {
		group := strings.TrimRight(c.name, "0123456789")
		for _, mu := range []float64{0, 0.9} {
			n, k := screenSoundness(t, fmt.Sprintf("%s,mu=%v", c.name, mu), c.x, mu)
			t.Logf("%s mu=%v: %d row-steps screened, %d re-screened from their sweep", c.name, mu, n, k)
			screened[group] += n
			rescreened[group] += k
		}
	}
	for _, group := range []string{"random", "branched", "sparse"} {
		if screened[group] == 0 {
			t.Errorf("the screen skipped no row on the %s instances", group)
		}
	}
	if rescreened["sparse"] == 0 {
		t.Error("the wave re-screened no row from its sweep on the sparse instance")
	}
}

// polarize rescales the utility of commodity j of x to scale times the
// marginal cost of its input link on the idle network, scale the
// (j+k)-th of scales, cyclically: at 1/1000 it stays rejected, at 20 it
// is admitted until the barrier binds, and 0 keeps its utility.
func polarize(x *transform.Extended, scales []float64, k int) {
	u := flow.Evaluate(flow.NewInitial(x))
	for j := range x.Commodities {
		scale := scales[(j+k)%len(scales)]
		if scale == 0 {
			continue
		}
		c := &x.Commodities[j]
		c.Utility = utility.Linear{Slope: scale * ComputeMarginals(u, j).LinkD[x.Sub[j].InputLink]}
		c.Loss = utility.Loss{U: c.Utility, Lambda: c.MaxRate}
	}
}

// screenSoundness runs TestScreenSkipsOnlyRowsGammaKeeps's check for
// 400 steps of a serving engine on x and returns how many row-steps the
// screen skipped and how many the wave re-screened from their sweep.
func screenSoundness(t *testing.T, name string, x *transform.Extended, mu float64) (screened, rescreened int) {
	t.Helper()
	ext, setExt := externalLoad(x, 3, 9)
	e := New(x, Config{Eta: 0.5, Backtrack: true, DisableBlocking: true, Momentum: mu})
	for step := 0; step < 400; step++ {
		if step%25 == 0 {
			setExt(step / 25)
			e.SetExternal(ext)
			if got, want := e.Stationarity(), refStationarity(flow.Evaluate(e.R), ext); !sameFloat(got, want) {
				t.Fatalf("%s step %d: Stationarity %v, reference %v", name, step, got, want)
			}
		}
		e.measure()
		// Γ's proposal for every row whose screen expired, taken before
		// the step: the wave re-screens such a row from its sweep when
		// it leaves it screened again.
		expired := map[int][]float64{}
		for j := range x.Sub {
			if !e.arena.skips(j) {
				if e.arena.screen[j].s != 0 {
					expired[j] = fullGamma(e, j)
				}
				continue
			}
			screened++
			if k := sameBits(t, fullGamma(e, j), e.R.Phi[j]); k >= 0 {
				t.Fatalf("%s step %d: row %d screened, but Γ moves φ[%d] off %v", name, step, j, k, e.R.Phi[j][k])
			}
		}
		before := e.R.Clone()
		e.Step()
		for j, c := range e.arena.screen {
			if c.s < 0 {
				t.Fatalf("%s step %d: row %d screened up to a negative drift %v", name, step, j, c.s)
			}
		}
		for j, g := range expired {
			if e.arena.screen[j].s == 0 {
				continue
			}
			rescreened++
			if k := sameBits(t, g, before.Phi[j]); k >= 0 {
				t.Fatalf("%s step %d: row %d re-screened from its sweep, but Γ moves φ[%d] off %v", name, step, j, k, before.Phi[j][k])
			}
		}
		sameForecast(t, fmt.Sprintf("%s step %d", name, step), e.Usage(), flow.Evaluate(e.R))
	}
	return screened, rescreened
}

// fullGamma is the row Step's wave would propose for commodity j if it
// swept it: the sweep at the engine's current prices, then Γ and the
// heavy-ball term into a copy of the spare routing's row, as
// arena.update runs them.
func fullGamma(e *Engine, j int) []float64 {
	sg := &e.X.Sub[j]
	rho, linkD := make([]float64, sg.NumNodes()), make([]float64, sg.NumEdges())
	sweep(e.u, j, e.arena.price, rho, linkD, nil, e.eta)
	next := append([]float64(nil), e.spare.Phi[j]...)
	mu := 0.0
	if e.heavy {
		mu = e.cfg.Momentum
	}
	gamma(e.u, j, linkD, nil, e.eta, mu, make([]float64, sg.NumEdges()), next)
	return next
}

// quietEngine is a serving engine on a small sparse instance whose
// every commodity values admission at 1/1000 of its input link's
// marginal cost on the idle network, so every row stays rejected, no
// price moves, and from the second step on the screen skips every row
// it can. The commodity with index tie instead values admission three
// ulps under that cost, a near tie the rounding guard must sweep; -1
// makes none. Every commodity is built as an explicit subset, so the
// problem can be reparameterized.
func quietEngine(t *testing.T, tie int) (*Engine, *stream.Problem, []int) {
	t.Helper()
	p := sparseProblem(t, 40)
	all := make([]int, len(p.Commodities))
	for gi := range all {
		all[gi] = gi
	}
	x := build(t, p, all)
	e := New(x, Config{Eta: 0.5, Backtrack: true, DisableBlocking: true, Momentum: 0.9})
	e.measure()
	for j := range x.Sub {
		sg := &x.Sub[j]
		rho, linkD := make([]float64, sg.NumNodes()), make([]float64, sg.NumEdges())
		sweep(e.u, j, e.arena.price, rho, linkD, nil, 0)
		slope := linkD[sg.InputLink] / 1000
		if j == tie {
			slope = linkD[sg.InputLink]
			for range 3 {
				slope = math.Nextafter(slope, 0)
			}
		}
		c := &x.Commodities[j]
		c.Utility = utility.Linear{Slope: slope}
		c.Loss = utility.Loss{U: c.Utility, Lambda: c.MaxRate}
	}
	e.Restart()
	return e, p, all
}

// TestScreenGuardSweepsNearTies builds a row whose best link leads the
// next by three ulps (quietEngine's tie): it stays rejected, so Γ
// returns it unchanged, and its margin is positive, so only the
// rounding guard keeps the screen from skipping it. Every other row is
// skipped, which shows the screen is on.
func TestScreenGuardSweepsNearTies(t *testing.T) {
	const tie = 3
	e, _, _ := quietEngine(t, tie)
	for step := 0; step < 3; step++ {
		e.Step()
		if n := e.Screened(); e.arena.skips(tie) || n != len(e.X.Sub)-1 {
			t.Fatalf("step %d: %d rows screened, the near tie among them: %v; want every row but the tie",
				step, n, e.arena.skips(tie))
		}
		if a := e.admitted[tie]; a != 0 {
			t.Fatalf("step %d: the near-tie commodity admits %v", step, a)
		}
	}
}

// TestScreenedStationaritySkipsRowsAboveOne puts one more than the
// commodity's whole mass, 1 + 2⁻⁵², on a rejected row's difference
// link. Γ keeps it there, so the row is screened with a positive bound
// like any other, and both the wave and Engine.Stationarity skip it:
// its one used link is its best, so its gap is 0, and the check still
// reports what a fresh CheckStationarity does.
func TestScreenedStationaritySkipsRowsAboveOne(t *testing.T) {
	const heavy = 5
	e, _, _ := quietEngine(t, -1)
	sg := &e.X.Sub[heavy]
	e.R.Phi[heavy][sg.DiffLink] = math.Nextafter(1, 2)
	e.spare.Phi[heavy][sg.DiffLink] = math.Nextafter(1, 2)
	e.Restart()
	for step := 0; step < 3; step++ {
		e.Step()
		if s := e.arena.screen[heavy].s; !(s > 0) || !e.arena.skips(heavy) {
			t.Fatalf("step %d: row %d screened up to %v, skipped %v; want a positive bound the wave skips under",
				step, heavy, s, e.arena.skips(heavy))
		}
		if got, want := e.Stationarity(), CheckStationarity(flow.Evaluate(e.R)); !sameFloat(got, want) {
			t.Fatalf("step %d: Stationarity %v, CheckStationarity %v", step, got, want)
		}
	}
}

// TestRestartSweepsEveryRow doubles the offered rate of a screened,
// rejected commodity, which moves no price, so the drift alone would
// leave the row screened with its old dummy-node usage and utility
// loss. Restart must drop every screen: the next steps are the
// reference model's (lockstep), bit for bit.
func TestRestartSweepsEveryRow(t *testing.T) {
	const doubled = 7
	q, p0, all := quietEngine(t, -1)
	l := newLockstep(t, q.X, q.cfg, nil, nil, nil)
	for range 3 {
		l.step()
	}
	e := l.e
	if e.Screened(); !e.arena.skips(doubled) || e.admitted[doubled] != 0 {
		t.Fatalf("row %d: screened %v, admitted %v; the case needs a screened rejected row",
			doubled, e.arena.skips(doubled), e.admitted[doubled])
	}
	p := p0.Clone()
	c := p.Commodities[doubled]
	if err := p.SetMaxRate(c.Name, 2*c.MaxRate); err != nil {
		t.Fatal(err)
	}
	// quietEngine's utilities live on the extended problem alone: carry
	// them over the reparameterization.
	u := e.X.Commodities[doubled].Utility
	l.cut(p0, p, all)
	for j := range e.X.Commodities {
		xc := &e.X.Commodities[j]
		if j == doubled {
			xc.Utility = u
		}
		xc.Loss = utility.Loss{U: xc.Utility, Lambda: xc.MaxRate}
	}
	for range 3 {
		l.step()
	}
}

// TestScreenWaitsOnlyOnFalls holds the sign rule: a rejected row's
// difference link has a constant marginal and its input link a
// nondecreasing function of the node prices, so only a price fall can
// close its margin. External usage on every capacitated node of a
// screened rejected row raises those prices by more than the row's
// price budget m_j/W_j: the row must stay screened, and the next steps
// must be the reference model's (lockstep), bit for bit. The same load
// taken off again lowers the prices by as much, which must expire the
// screen: the next wave sweeps the row.
func TestScreenWaitsOnlyOnFalls(t *testing.T) {
	const row = 7
	q, _, _ := quietEngine(t, -1)
	x := q.X
	ext := make([]float64, x.SharedNodes)
	l := newLockstep(t, x, q.cfg, nil, ext, nil)
	e := l.e
	e.SetExternal(ext)
	steps := func() {
		for range 3 {
			l.step()
		}
	}
	steps()
	if e.Screened(); !e.arena.skips(row) || e.admitted[row] != 0 {
		t.Fatalf("row %d: screened %v, admitted %v; the case needs a screened rejected row",
			row, e.arena.skips(row), e.admitted[row])
	}
	sg := &x.Sub[row]
	m := ComputeMarginals(flow.Evaluate(e.R), row)
	budget := (m.LinkD[sg.InputLink] - m.LinkD[sg.DiffLink]) / e.arena.width(row)

	// load puts share of its capacity on each of the row's capacitated
	// nodes and returns the largest rise and the largest fall of their
	// prices.
	load := func(share float64) (rise, fall float64) {
		t.Helper()
		before := append([]float64(nil), e.arena.price...)
		for _, n := range sg.Nodes {
			if int(n) < x.SharedNodes && !math.IsInf(x.Capacity[n], 1) {
				ext[n] = share * x.Capacity[n]
			}
		}
		e.SetExternal(ext)
		e.Screened()
		for _, n := range sg.Nodes {
			rise = max(rise, e.arena.price[n]-before[n])
			fall = max(fall, before[n]-e.arena.price[n])
		}
		return rise, fall
	}

	if rise, _ := load(0.75); !(rise > budget) {
		t.Fatalf("the load raises row %d's prices by at most %v, within its budget %v", row, rise, budget)
	}
	if !e.arena.skips(row) {
		t.Fatalf("row %d: risen prices expired its screen", row)
	}
	steps()
	if _, fall := load(0); !(fall > budget) {
		t.Fatalf("unloading lowers row %d's prices by at most %v, within its budget %v", row, fall, budget)
	}
	if e.arena.skips(row) {
		t.Fatalf("row %d: fallen prices left it screened", row)
	}
	steps()
}

// TestRestartRepricesIdleNodes halves the capacity of a node no flow
// reaches, whose price and penalty term no load change has moved since
// the engine started. Across Restart the node pass must price it under
// its new capacity: the cost and the node prices the next steps carry
// are the reference model's (lockstep), bit for bit.
func TestRestartRepricesIdleNodes(t *testing.T) {
	q, p0, all := quietEngine(t, -1)
	l := newLockstep(t, q.X, q.cfg, nil, nil, nil)
	for range 3 {
		l.step()
	}
	e := l.e
	idle := -1
	for n, f := range e.Usage().FNode[:e.X.SharedNodes] {
		if f == 0 && e.X.Kind(graph.NodeID(n)) == transform.Proc && e.arena.price[n] != 0 {
			idle = n
			break
		}
	}
	if idle < 0 {
		t.Fatal("no priced processing node is idle; the case needs one")
	}
	p := p0.Clone()
	if err := p.Net.SetCapacity(p.Net.Names[idle], p.Net.Capacity[idle]/2); err != nil {
		t.Fatal(err)
	}
	// quietEngine's utilities live on the extended problem alone: carry
	// them over the reparameterization.
	utilities := make([]utility.Function, len(e.X.Commodities))
	for j, c := range e.X.Commodities {
		utilities[j] = c.Utility
	}
	l.cut(p0, p, all)
	for j := range e.X.Commodities {
		c := &e.X.Commodities[j]
		c.Utility, c.Loss = utilities[j], utility.Loss{U: utilities[j], Lambda: c.MaxRate}
	}
	for range 4 {
		l.step()
	}
}

// TestScreenReusesMostRows guards how much of the serving step the
// screen saves, which no other test pins: the soundness tests pass as
// well on a screen that skips nothing. On the J=1k sparse instance it
// runs one serving engine at the benchmark's solver settings (η 0.005,
// backtracking, μ 0.9, each solve stopped by the stationarity check
// every 25 steps at tolerance 5e-3 or after 400 steps): a cold solve,
// then decisions that each raise one commodity's offered rate by half
// and solve warm after a Restart, as the server's rate changes do. It
// counts the row-steps the wave reuses, skipped by the screen or
// re-screened from their sweep.
func TestScreenReusesMostRows(t *testing.T) {
	p := sparseProblem(t, 1000)
	all := make([]int, len(p.Commodities))
	for gi := range all {
		all[gi] = gi
	}
	x := build(t, p, all)
	e := New(x, Config{Eta: 0.005, Backtrack: true, DisableBlocking: true, Momentum: 0.9})
	skipped, rescreened, steps := 0, 0, 0
	solve := func() {
		for i := 0; i < 400; i++ {
			if i%25 == 0 && e.Stationarity() <= 5e-3 {
				return
			}
			n, k := countedStep(e)
			skipped, rescreened, steps = skipped+n, rescreened+k, steps+1
		}
	}
	solve()
	for d := 0; d < 8; d++ {
		c := p.Commodities[(d*397)%len(p.Commodities)]
		if err := p.SetMaxRate(c.Name, 1.5*c.MaxRate); err != nil {
			t.Fatal(err)
		}
		x.Reparameterize(p, all)
		e.Restart()
		solve()
	}
	rowSteps := float64(steps * len(x.Sub))
	share := float64(skipped+rescreened) / rowSteps
	t.Logf("%d steps: %.1f %% of row-steps reused (%.1f %% skipped, %.1f %% re-screened from their sweep)",
		steps, 100*share, 100*float64(skipped)/rowSteps, 100*float64(rescreened)/rowSteps)
	// The shares this instance reused and skipped when the guard was
	// set, less the margin a change may give up before the guard fails.
	// The screen before the sign rule and re-screening from the sweep
	// skipped 72.0 %; without the sign rule the reused share is the
	// same, but 5.8 % of row-steps take a sweep to be re-screened.
	const reused, skips, margin = 0.778, 0.746, 0.015
	if share < reused-margin || float64(skipped)/rowSteps < skips-margin {
		t.Fatalf("%.1f %% of row-steps reused and %.1f %% skipped, want at least %.1f %% and %.1f %%",
			100*share, 100*float64(skipped)/rowSteps, 100*(reused-margin), 100*(skips-margin))
	}
}

// countedStep runs one Step of a serving engine and returns how many
// rows its wave skipped and how many it re-screened from their sweep.
// It measures first, as the Step would, so the trajectory is the same.
func countedStep(e *Engine) (skipped, rescreened int) {
	skipped = e.Screened()
	var expired []int
	for j := range e.arena.screen {
		if !e.arena.skips(j) && e.arena.screen[j].s != 0 {
			expired = append(expired, j)
		}
	}
	e.Step()
	for _, j := range expired {
		if e.arena.screen[j].s != 0 {
			rescreened++
		}
	}
	return skipped, rescreened
}
