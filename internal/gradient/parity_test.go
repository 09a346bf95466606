package gradient

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

// lockstep steps an engine and the reference model (refModel) together
// in turns of 25 steps: the one driver of the parity tests, which hold
// the engine's step — the fused wave, the branch list, the node pass and
// the carried evaluation, the screen, the heavy ball and step control —
// to the model bit for bit. At every turn start it rewrites the
// external usage in place and installs it (SetExternal), as a
// coordinator's turns do, and holds Engine.Stationarity to the model's
// fresh gap. Before every step it holds the engine's node prices to the
// model's; after it, every StepInfo field, η, the backtrack count, Stats
// and every φ row; the fused sweep, run on what the model's step saw,
// to the model's wave (ρ, link marginals, tags, the topology's message
// and round counts); the engine's usage to the model's fresh forecast;
// the admitted rates the engine carries; and the spare routing to the
// routing off the branch nodes' out-edges.
type lockstep struct {
	t *testing.T
	e *Engine
	m *refModel
	// setExt rewrites m.ext in place for turn k (numbered from 1); nil
	// installs no external usage.
	setExt   func(k int)
	onBranch [][]bool // per commodity, the out-edges of its branch nodes

	steps, accepted, rejected int
	screened                  int // row-steps the engine's screen skipped

	rho, linkD []float64
	tagged     []bool
}

// newLockstep pairs an engine NewFrom(x, start, cfg) with the model;
// a nil start is flow.NewInitial's.
func newLockstep(t *testing.T, x *transform.Extended, cfg Config, start *flow.Routing, ext []float64, setExt func(k int)) *lockstep {
	t.Helper()
	if start == nil {
		start = flow.NewInitial(x)
	}
	e, err := NewFrom(x, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := &lockstep{t: t, e: e, m: newRefModel(x, ext, cfg, start.Clone()), setExt: setExt, onBranch: make([][]bool, len(x.Sub))}
	maxN, maxE := 0, 0
	for j := range x.Sub {
		sg := &x.Sub[j]
		maxN, maxE = max(maxN, sg.NumNodes()), max(maxE, sg.NumEdges())
		l.onBranch[j] = make([]bool, sg.NumEdges())
		for _, ln := range sg.Branch() {
			for _, le := range sg.Out(ln) {
				l.onBranch[j][le] = true
			}
		}
	}
	l.rho, l.linkD, l.tagged = make([]float64, maxN), make([]float64, maxE), make([]bool, maxN)
	return l
}

// turns runs n turns.
func (l *lockstep) turns(n int) {
	t, e, m := l.t, l.e, l.m
	t.Helper()
	for range n {
		if l.setExt != nil {
			l.setExt(l.steps/25 + 1)
			e.SetExternal(m.ext)
		}
		if got, want := e.Stationarity(), refStationarity(m.usage(), m.ext); !sameFloat(got, want) {
			t.Fatalf("step %d: Stationarity %v, reference %v", l.steps, got, want)
		}
		for range 25 {
			l.step()
		}
	}
}

// cut installs p's parameters over the commodities in subset in place
// (Reparameterize) and restarts both; p0's go back when the test ends.
func (l *lockstep) cut(p0, p *stream.Problem, subset []int) {
	t, x := l.t, l.e.X
	t.Helper()
	if ch, err := x.Changes(p, subset); ch != transform.Parameters || err != nil {
		t.Fatalf("Changes = %v, %v", ch, err)
	}
	x.Reparameterize(p, subset)
	t.Cleanup(func() { x.Reparameterize(p0, subset) })
	l.e.Restart()
	l.m.restart()
}

// step steps both once. Screened first brings the engine's evaluation
// of its routing up to date, as Step would, so its prices can be read.
func (l *lockstep) step() {
	t, e, m, s := l.t, l.e, l.m, l.steps
	t.Helper()
	l.screened += e.Screened()
	if k := sameBits(t, e.arena.price, refPrices(m.usage(), m.ext)); k >= 0 {
		t.Fatalf("step %d: node %s priced %v, reference %v", s, e.X.Name(graph.NodeID(k)), e.arena.price[k], refPrices(m.usage(), m.ext)[k])
	}
	backtracks := m.backtracks
	got, want := e.Step(), m.step()
	if m.backtracks > backtracks {
		l.rejected++
	} else {
		l.accepted++
	}
	if got.Iteration != want.Iteration || !sameFloat(got.Utility, want.Utility) ||
		!sameFloat(got.Cost, want.Cost) || got.Feasible != want.Feasible {
		t.Fatalf("step %d: StepInfo %+v, reference %+v", s, got, want)
	}
	if e.Eta() != m.eta || e.Backtracks() != m.backtracks || e.Stats() != m.stats {
		t.Fatalf("step %d: η %v after %d rejections, %+v; reference %v after %d, %+v",
			s, e.Eta(), e.Backtracks(), e.Stats(), m.eta, m.backtracks, m.stats)
	}
	for j := range e.R.Phi {
		if k := sameBits(t, e.R.Phi[j], m.r.Phi[j]); k >= 0 {
			t.Fatalf("step %d commodity %d: φ[%d] = %v, reference %v", s, j, k, e.R.Phi[j][k], m.r.Phi[j][k])
		}
	}
	l.checkWave()

	if e.Usage().R != e.R {
		t.Fatalf("step %d: usage bound to another routing", s)
	}
	sameForecast(t, fmt.Sprint("step ", s), e.Usage(), m.usage())
	for j, row := range e.R.Phi {
		if a := m.r.AdmittedRate(j); !sameFloat(e.admitted[j], a) {
			t.Fatalf("step %d: carried admitted[%d] = %v, reference %v", s, j, e.admitted[j], a)
		}
		for le, v := range row {
			if !l.onBranch[j][le] && !sameFloat(e.spare.Phi[j][le], v) {
				t.Fatalf("step %d commodity %d: spare φ[%d] = %v off the branch nodes, routing %v", s, j, le, e.spare.Phi[j][le], v)
			}
		}
	}
	l.steps++
}

// checkWave runs the fused sweep, with the tags when the model ran them,
// on the forecast, prices and η of the model's last step, and holds it
// to the model's wave. It also holds the model's Γ, which visits every
// node, to the branch list: at a node with one member out-edge it may
// write only the value already there.
func (l *lockstep) checkWave() {
	t, p := l.t, &l.m.last
	t.Helper()
	for j := range l.e.X.Sub {
		sg, row := &l.e.X.Sub[j], &p.rows[j]
		rho, linkD := l.rho[:sg.NumNodes()], l.linkD[:sg.NumEdges()]
		var tagged []bool
		if row.tagged != nil {
			tagged = l.tagged[:sg.NumNodes()]
		}
		sweep(p.u, j, p.price, rho, linkD, tagged, p.eta)
		if k := sameBits(t, rho, row.rho); k >= 0 {
			t.Fatalf("step %d commodity %d: ρ[%d] = %v, reference %v", l.steps, j, k, rho[k], row.rho[k])
		}
		if k := sameBits(t, linkD, row.linkD); k >= 0 {
			t.Fatalf("step %d commodity %d: linkD[%d] = %v, reference %v", l.steps, j, k, linkD[k], row.linkD[k])
		}
		for ln := range tagged {
			if tagged[ln] != row.tagged[ln] {
				t.Fatalf("step %d commodity %d: tag of local node %d = %v, reference %v", l.steps, j, ln, tagged[ln], row.tagged[ln])
			}
		}
		if sg.NumEdges() != row.messages || sg.Depth() != row.depth {
			t.Fatalf("commodity %d: topology constants (%d messages, %d rounds), reference wave counted (%d, %d)",
				j, sg.NumEdges(), sg.Depth(), row.messages, row.depth)
		}
		for ln, wrote := range row.wrote {
			if outs := sg.Out(int32(ln)); wrote && len(outs) == 1 && !sameFloat(p.next.Phi[j][outs[0]], p.u.R.Phi[j][outs[0]]) {
				t.Fatalf("step %d commodity %d: reference Γ changed φ at single-out-edge node %d (%v → %v)",
					l.steps, j, ln, p.u.R.Phi[j][outs[0]], p.next.Phi[j][outs[0]])
			}
		}
	}
}

// externalLoad returns an external usage vector for x and its rewrite
// for turn k, which loads each capacitated node i with
// 0.05·((i + stride·k) mod period)/(period − 1) of its capacity, so the
// load rises and falls from turn to turn.
func externalLoad(x *transform.Extended, stride, period int) ([]float64, func(k int)) {
	ext := make([]float64, x.SharedNodes)
	return ext, func(k int) {
		for i := range ext {
			if c := x.Capacity[i]; !math.IsInf(c, 1) {
				ext[i] = c * 0.05 * float64((i+stride*k)%period) / float64(period-1)
			}
		}
	}
}

// subsetOf returns every every-th commodity index of p.
func subsetOf(p *stream.Problem, every int) []int {
	var subset []int
	for gi := range p.Commodities {
		if gi%every == 0 {
			subset = append(subset, gi)
		}
	}
	return subset
}

// TestKernelMatchesReferenceWave is the licence for the fused iterate
// layer in the paper mode (fixed η), with the tags on and off: over 300
// steps, on the paper's E4 and E6 instances, five random ones, a J=1k
// sparse one and one shard of it priced against an external usage that
// grows 2% a turn, the engine takes the model's trajectory.
func TestKernelMatchesReferenceWave(t *testing.T) {
	type instance struct {
		name   string
		x      *transform.Extended
		eta    float64
		ext    []float64
		setExt func(k int)
	}
	instances := []instance{
		{name: "E4-paper", x: buildInstance(t, randnet.Config{Seed: 2, Nodes: 40, Commodities: 3}), eta: 0.04},
		{name: "E6-many-commodity", x: buildInstance(t, randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8}), eta: 0.04},
	}
	for seed := int64(1); seed <= 5; seed++ {
		x := buildInstance(t, randnet.Config{Seed: seed, Nodes: 24, Commodities: 4})
		instances = append(instances, instance{name: fmt.Sprintf("sweep-seed%d", seed), x: x, eta: 0.04})
	}
	sparse := sparseProblem(t, 1000)
	instances = append(instances, instance{name: "sparse-J1k", x: build(t, sparse, nil), eta: 0.005})

	// One shard of four: a quarter of the commodities.
	x := build(t, sparse, subsetOf(sparse, 4))
	ext := make([]float64, x.SharedNodes)
	instances = append(instances, instance{"shard-subset-external", x, 0.005, ext, func(k int) {
		for i := range ext {
			if c := x.Capacity[i]; !math.IsInf(c, 1) {
				ext[i] = c * 0.1 * float64(i%7+1) / 7
				for range k - 1 {
					ext[i] *= 1.02
				}
			}
		}
	}})

	for _, in := range instances {
		for _, blocking := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/blocking=%v", in.name, blocking), func(t *testing.T) {
				newLockstep(t, in.x, Config{Eta: in.eta, DisableBlocking: !blocking}, nil, in.ext, in.setExt).turns(12)
			})
		}
	}
}

// diamond builds src → {a, b} → sink plus a cross link a → b, so a and
// every bandwidth node have one member out-edge, src and the dummy two.
func diamond(t *testing.T, capB float64) *transform.Extended {
	t.Helper()
	net := stream.NewNetwork()
	src, _ := net.AddServer("src", 50)
	a, _ := net.AddServer("a", 30)
	b, _ := net.AddServer("b", capB)
	sink, _ := net.AddSink("sink")
	p := stream.NewProblem(net)
	c, err := p.AddCommodity("S", src, sink, 20, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Shrinkage products agree on both routes into b (Property 1).
	for _, l := range []struct {
		from, to graph.NodeID
		beta     float64
	}{{src, a, 0.9}, {src, b, 0.81}, {a, b, 0.9}, {b, sink, 0.9}} {
		e, err := net.AddLink(l.from, l.to, 60)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetEdge(c, e, stream.EdgeParams{Beta: l.beta, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return build(t, p, nil)
}

// TestKernelShortcutCases pins the states where the fused kernel takes a
// different road from the model: nodes the branch list skips, values
// the price vector and the topology constants replace, and the edges of
// eq. 18's test and of step control's. Each case asserts that the state
// it is named for occurs in the model's first step, then runs the
// engine and the model in lockstep from it.
func TestKernelShortcutCases(t *testing.T) {
	// node resolves a node name to its extended ID.
	node := func(x *transform.Extended, name string) graph.NodeID {
		for n := range graph.NodeID(x.NumNodes()) {
			if x.Name(n) == name {
				return n
			}
		}
		t.Fatalf("no node %q", name)
		return -1
	}
	// localNode resolves a node name to commodity 0's local index.
	localNode := func(x *transform.Extended, name string) int32 {
		return graph.Local(x.Sub[0].Nodes, node(x, name))
	}
	admit := func(x *transform.Extended, share float64) *flow.Routing {
		r := flow.NewInitial(x)
		r.Phi[0][x.Sub[0].InputLink] = share
		r.Phi[0][x.Sub[0].DiffLink] = 1 - share
		return r
	}
	// first is what the model's first step from r saw.
	first := func(x *transform.Extended, r *flow.Routing, eta float64) *refPass {
		m := newRefModel(x, nil, Config{Eta: eta}, r.Clone())
		m.step()
		return &m.last
	}
	// modes runs the tags on and off at fixed η, and the tags on under
	// Backtrack.
	modes := func(t *testing.T, x *transform.Extended, r *flow.Routing, eta float64, turns int) {
		t.Helper()
		for _, cfg := range []Config{{Eta: eta}, {Eta: eta, DisableBlocking: true}, {Eta: eta, Backtrack: true}} {
			newLockstep(t, x, cfg, r, nil, nil).turns(turns)
		}
	}

	t.Run("single out-edge with φ=0 toward a tagged head", func(t *testing.T) {
		// Without a barrier (ε = 0) every price is zero, so each
		// traffic-carrying single-out-edge node sits exactly on the
		// improper-link boundary and tags; the tag propagates up to
		// bw:a>b, whose tail a has had its only φ zeroed by hand.
		x := diamond(t, 40)
		x.Epsilon = 0
		sg := &x.Sub[0]
		r := admit(x, 0.5)
		a := localNode(x, "a")
		if len(sg.Out(a)) != 1 {
			t.Fatalf("a has %d member out-edges, want 1", len(sg.Out(a)))
		}
		le := sg.Out(a)[0]
		r.Phi[0][le] = 0
		p := first(x, r, 0.05)
		if !p.rows[0].tagged[sg.Head[le]] {
			t.Fatal("head of a's out-edge is not tagged in the reference wave")
		}
		if p.rows[0].wrote[a] {
			t.Fatal("reference Γ wrote at the blocked single-out-edge node")
		}
		newLockstep(t, x, Config{Eta: 0.05}, r, nil, nil).turns(2)
	})

	t.Run("uncapacitated nodes price at zero", func(t *testing.T) {
		x := diamond(t, 40)
		x.Epsilon = 0 // no barrier
		for n, p := range first(x, admit(x, 0.5), 0.05).price {
			if p != 0 {
				t.Fatalf("node %s priced %v without a barrier", x.Name(graph.NodeID(n)), p)
			}
		}
		newLockstep(t, x, Config{Eta: 0.05}, admit(x, 0.5), nil, nil).turns(2)
		// With the default barrier the dummy and the sink still do.
		x = diamond(t, 40)
		price := first(x, admit(x, 0.5), 0.05).price
		c := &x.Commodities[0]
		if price[c.Dummy] != 0 || price[c.Sink] != 0 || price[c.Source] == 0 {
			t.Fatalf("prices dummy %v sink %v source %v", price[c.Dummy], price[c.Sink], price[c.Source])
		}
	})

	t.Run("LinkD=+Inf during a capacity overshoot", func(t *testing.T) {
		// b's capacity is zero, below what the even split sends it, so
		// the clamp leaves nothing under the barrier: b prices at
		// D'(0) = 1/0² = +Inf, and so do the marginals of every link into
		// and out of it. The cost is +Inf before and after every step,
		// which step control keeps: +Inf ≤ +Inf.
		x := diamond(t, 4)
		x.Capacity[node(x, "b")] = 0
		r := admit(x, 1)
		p, b := first(x, r, 0.05), localNode(x, "b")
		if d := p.rows[0].linkD[x.Sub[0].Out(b)[0]]; !math.IsInf(d, 1) {
			t.Fatalf("LinkD out of b = %v, want +Inf", d)
		}
		if p.rows[0].wrote[b] {
			t.Fatal("reference Γ wrote at a node whose only marginal is +Inf")
		}
		if cost := refCost(p.u, nil); !math.IsInf(cost, 1) {
			t.Fatalf("cost %v, want +Inf", cost)
		}
		modes(t, x, r, 0.05, 2)
	})

	t.Run("eq. 18 at its boundary", func(t *testing.T) {
		// src is uncapacitated, so its costlier out-link is improper, and
		// η puts that link's φ exactly at η/t·(d − ρ): src tags on the
		// equality alone, below two untagged heads.
		x := diamond(t, 40)
		x.Capacity[node(x, "src")] = math.Inf(1)
		r, sg := admit(x, 0.5), &x.Sub[0]
		src, outs := sg.Source, sg.Out(sg.Source)
		r.Phi[0][outs[0]], r.Phi[0][outs[1]] = 0.5, 0.5
		u := flow.Evaluate(r)
		row := refRho(u, refPrices(u, nil), 0)
		le := outs[0]
		if row.linkD[outs[1]] > row.linkD[le] {
			le = outs[1]
		}
		gap, ts := row.linkD[le]-row.rho[src], u.T[0][src]
		eta := 0.5 * ts / gap
		for i := 0; eta/ts*gap != 0.5; i++ {
			if i == 64 {
				t.Fatalf("no η near %v puts φ = 0.5 at η/t·(d − ρ) = %v/%v·%v", eta, eta, ts, gap)
			}
			eta = math.Nextafter(eta, math.Copysign(math.Inf(1), 0.5-eta/ts*gap))
		}
		if p := first(x, r, eta); !p.rows[0].tagged[src] || p.rows[0].tagged[sg.Head[outs[0]]] || p.rows[0].tagged[sg.Head[outs[1]]] {
			t.Fatalf("tags: src %v, heads %v %v; the case needs src's alone",
				p.rows[0].tagged[src], p.rows[0].tagged[sg.Head[outs[0]]], p.rows[0].tagged[sg.Head[outs[1]]])
		}
		modes(t, x, r, eta, 2)
	})

	t.Run("t=0 nodes", func(t *testing.T) {
		// Everything rejected: no node past the dummy carries traffic, so
		// Γ at src takes the t → 0 limit and no tag can fire.
		x := diamond(t, 40)
		r := flow.NewInitial(x)
		p := first(x, r, 0.05)
		if src := x.Sub[0].Source; p.u.T[0][src] != 0 {
			t.Fatalf("t(src) = %v at the all-rejected start", p.u.T[0][src])
		}
		for ln, tag := range p.rows[0].tagged {
			if tag && int32(ln) != x.Sub[0].Dummy {
				t.Fatalf("local node %d tagged with zero traffic", ln)
			}
		}
		newLockstep(t, x, Config{Eta: 0.05}, r, nil, nil).turns(2)
	})

	t.Run("dummy is the only branch node", func(t *testing.T) {
		x := singlePath(t, 10, 1000, 20)
		sg := &x.Sub[0]
		if br := sg.Branch(); len(br) != 1 || br[0] != sg.Dummy {
			t.Fatalf("branch list %v, want only the dummy (%d)", br, sg.Dummy)
		}
		modes(t, x, nil, 0.5, 12)
	})
}

// TestServingStepMatchesReferenceStep is the licence for the serving
// step (backtracking, tags off) on one shard of a sparse instance: the
// carried evaluation, the screen and the heavy ball. Its cases run
// through a step scale large enough to be rejected, external usage
// rewritten between turns, and a capacity cut and a rate change
// installed in place (Reparameterize) followed by a Restart, without
// momentum and with the serving mode's μ 0.9. They fail unless steps
// are both accepted and rejected, and at μ 0.9 unless heavy-ball node
// updates are pushed, restarted and clipped. On the sparse instances
// the screen must skip rows both before the cut and after the Restart;
// the branched instance's rows do not reach the vertices it needs.
//
// Two more instances license the sweep's carried ρ and the wave's
// concrete-type utility calls. "branched" is a layered instance whose
// member DAGs fork, so within one reverse order a node's one out-edge
// may or may not lead to the node visited just before it: the sweep
// takes the carried ρ at some and reloads it at others. "mixed" gives
// the sparse chains Linear, Log and Sqrt utilities in turn, so the
// Linear path and the interface path both run in every wave.
// The subtest names keep a "workers=1" suffix so that their IDs match
// earlier test reports.
func TestServingStepMatchesReferenceStep(t *testing.T) {
	sparse, mixed := sparseProblem(t, 1200), sparseProblem(t, 1200)
	branched := generate(t, randnet.Config{Seed: 5, Nodes: 40, Layers: 5, Commodities: 6})
	cycle := []utility.Function{utility.Linear{Slope: 1}, utility.Log{Weight: 40, Scale: 10}, utility.Sqrt{Weight: 10, Shift: 1}}
	for j, c := range mixed.Commodities {
		if err := mixed.SetUtility(c.Name, cycle[j%3]); err != nil {
			t.Fatal(err)
		}
	}
	for _, inst := range []struct {
		prefix string
		p      *stream.Problem
		every  int  // the shard holds every every-th commodity
		forks  bool // some single-out-edge node's head was not visited last
		mixes  bool // Linear and non-Linear utilities
	}{{"", sparse, 4, false, false}, {"branched,", branched, 1, true, false}, {"mixed,", mixed, 4, false, true}} {
		subset := subsetOf(inst.p, inst.every)
		x := build(t, inst.p, subset)
		switch carried, reloaded := chainLinks(x); {
		case carried == 0:
			t.Fatalf("%q: no node's one out-edge leads to the node visited before it", inst.prefix)
		case inst.forks && reloaded == 0:
			t.Fatalf("%q: all %d single-out-edge nodes lead to the node visited before them", inst.prefix, carried)
		}
		if inst.mixes {
			linear := 0
			for _, c := range x.Commodities {
				if _, ok := c.Utility.(utility.Linear); ok {
					linear++
				}
			}
			if linear == 0 || linear == len(x.Commodities) {
				t.Fatalf("%q: %d of %d commodities Linear; the case needs both paths", inst.prefix, linear, len(x.Commodities))
			}
		}
		for _, mu := range []float64{0, 0.9} {
			name := "workers=1"
			if mu > 0 {
				name = fmt.Sprintf("mu=%v,workers=1", mu)
			}
			t.Run(inst.prefix+name, func(t *testing.T) {
				ext, setExt := externalLoad(x, 3, 9)
				l := newLockstep(t, x, Config{Eta: 0.5, Backtrack: true, DisableBlocking: true, Momentum: mu}, nil, ext, setExt)
				l.turns(8)
				before := l.screened
				p := inst.p.Clone()
				for i, kind := range p.Net.Kinds {
					if kind == stream.Processing {
						if err := p.Net.SetCapacity(p.Net.Names[i], p.Net.Capacity[i]/2); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				c := p.Commodities[subset[1]]
				if err := p.SetMaxRate(c.Name, c.MaxRate*1.5); err != nil {
					t.Fatal(err)
				}
				l.cut(inst.p, p, subset)
				l.turns(6)

				if l.accepted == 0 || l.rejected == 0 {
					t.Fatalf("%d accepted and %d rejected steps: the case needs both", l.accepted, l.rejected)
				}
				if m := l.m; mu > 0 && (m.pushed == 0 || m.restarted == 0 || m.clipped == 0) {
					t.Fatalf("heavy-ball node updates: %d pushed, %d restarted, %d clipped; the case needs all three",
						m.pushed, m.restarted, m.clipped)
				}
				if !inst.forks && (before == 0 || l.screened == before) {
					t.Fatalf("%d row-steps screened before the cut and %d after: the case needs both", before, l.screened-before)
				}
				t.Logf("%d steps: %d accepted, %d rejected, %d row-steps screened", l.steps, l.accepted, l.rejected, l.screened)
			})
		}
	}
}

// chainLinks counts, over every commodity's reverse topological order,
// the nodes with one member out-edge whose head is the node visited
// just before (the sweep carries its ρ) and those whose head is not
// (the sweep reloads it).
func chainLinks(x *transform.Extended) (carried, reloaded int) {
	for j := range x.Sub {
		sg := &x.Sub[j]
		last := int32(-1)
		for _, ln := range sg.RevTopo() {
			if outs := sg.Out(ln); len(outs) == 1 {
				if sg.Head[outs[0]] == last {
					carried++
				} else {
					reloaded++
				}
			}
			last = ln
		}
	}
	return carried, reloaded
}

// TestCarriedStateMatchesFreshEvaluation holds what the engine carries
// from one step to the next — the forecast the wave writes in place,
// the admitted rates, utility and loss it measures on the way, the node
// pass that judges them, and the spare routing Γ seeds only at branch
// nodes — to the model's fresh evaluations, so a rejected proposal's
// forecast may not stand, in every step mode a binary runs: the serving
// mode (backtracking, no tags, μ 0.9, an η large enough to be
// rejected), the paper mode with tags, and the tags with backtracking
// (core.GradientAdaptive). Each runs on one shard of a sparse
// instance under external usage rewritten every turn, and through a
// Reparameterize that offers the most admitted commodity more and
// raises every capacity, then a Restart.
// The first two subtest names keep a ",workers=1" suffix so that their
// IDs match earlier test reports.
func TestCarriedStateMatchesFreshEvaluation(t *testing.T) {
	sparse := sparseProblem(t, 600)
	subset := subsetOf(sparse, 3)
	x := build(t, sparse, subset)
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"serving,workers=1", Config{Eta: 0.5, Backtrack: true, DisableBlocking: true, Momentum: 0.9}},
		{"paper,workers=1", Config{Eta: 0.04}},
		{"adaptive", Config{Eta: 0.5, Backtrack: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ext, setExt := externalLoad(x, 5, 7)
			l := newLockstep(t, x, mode.cfg, nil, ext, setExt)
			l.turns(4)
			// The commodity admitting the most is offered more, so its
			// a_j, its utility and its loss term all move, and every
			// capacity rises, so the cost they enter stays finite.
			r := l.m.r
			hot := 0
			for j := range x.Sub {
				if r.AdmittedRate(j) > r.AdmittedRate(hot) {
					hot = j
				}
			}
			p := sparse.Clone()
			c := p.Commodities[subset[hot]]
			if err := p.SetMaxRate(c.Name, c.MaxRate*1.25); err != nil {
				t.Fatal(err)
			}
			for i, kind := range p.Net.Kinds {
				if kind == stream.Processing {
					if err := p.Net.SetCapacity(p.Net.Names[i], p.Net.Capacity[i]*1.2); err != nil {
						t.Fatal(err)
					}
				}
			}
			l.cut(sparse, p, subset)
			if a, cost := r.AdmittedRate(hot), refCost(flow.Evaluate(r), ext); a == 0 || math.IsInf(cost, 0) {
				t.Fatalf("after the reparameterization a_%d = %v and the cost is %v; the case needs a positive rate at a finite cost", hot, a, cost)
			}
			l.turns(2)
			if mode.cfg.Backtrack && (l.rejected == 0 || l.accepted == 0) {
				t.Fatalf("%d of %d steps rejected; the case needs both", l.rejected, l.steps)
			}
			t.Logf("%d steps, %d rejected", l.steps, l.rejected)
		})
	}
}

// TestBacktrackingMatchesReferenceLoop pins Config.Backtrack with the
// tags on (core.GradientAdaptive) to the model's accept/grow/shrink
// rule over 300 steps, from a reasonable initial η and from a hostile
// one, which must be rejected at least once.
func TestBacktrackingMatchesReferenceLoop(t *testing.T) {
	instances := []struct {
		name string
		x    *transform.Extended
	}{
		{"E4", buildInstance(t, randnet.Config{Seed: 2, Nodes: 40, Commodities: 3})},
		{"E6", buildInstance(t, randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})},
		{"seed13", randomExtended(t, 13)},
		{"seed17", randomExtended(t, 17)},
		{"seed23", randomExtended(t, 23)},
	}
	for _, in := range instances {
		for _, eta0 := range []float64{0.04, 50} {
			t.Run(fmt.Sprintf("%s/eta0=%v", in.name, eta0), func(t *testing.T) {
				l := newLockstep(t, in.x, Config{Eta: eta0, Backtrack: true}, nil, nil, nil)
				l.turns(12)
				if eta0 == 50 && l.rejected == 0 {
					t.Fatal("hostile eta never backtracked; the test exercised one branch only")
				}
			})
		}
	}
}
