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

// The reference wave: the three-pass per-commodity chain the engines ran
// before the passes were fused — marginal-cost wave with per-edge node
// pricing and per-edge message/round counting, a second reverse sweep
// for the eq. 18 tags, and Γ at every non-sink node in Topo order. It is
// kept here, test-side, as the oracle the fused sweep, the branch-list
// update and the topology-constant accounting are compared against bit
// for bit (the flow/dense_parity_test.go pattern).

type refMarginals struct {
	rho, linkD       []float64
	rounds, messages int
}

func refComputeMarginals(u *flow.Usage, ext []float64, j int) refMarginals {
	x := u.R.X
	sg := &x.Sub[j]
	m := refMarginals{rho: make([]float64, sg.NumNodes()), linkD: make([]float64, sg.NumEdges())}
	depth := make([]int, sg.NumNodes())
	phi := u.R.Phi[j]
	for _, ln := range sg.RevTopo() {
		if ln == sg.Sink {
			m.rho[ln] = 0
			continue
		}
		var (
			rho    float64
			rounds int
		)
		n := sg.Nodes[ln]
		for _, le := range sg.Out(ln) {
			head := sg.Head[le]
			var loss float64
			if le == sg.DiffLink {
				loss = x.Commodities[j].Loss.Deriv(u.EdgeFlow(j, le))
			}
			dAdf := x.ShadowPrice(n, loadAt(u, ext, int(n))) + loss
			d := dAdf*sg.Cost[le] + sg.Beta[le]*m.rho[head]
			m.linkD[le] = d
			rho += phi[le] * d
			m.messages++
			if depth[head]+1 > rounds {
				rounds = depth[head] + 1
			}
		}
		m.rho[ln] = rho
		depth[ln] = rounds
		if rounds > m.rounds {
			m.rounds = rounds
		}
	}
	return m
}

func refComputeTags(u *flow.Usage, j int, m refMarginals, eta float64) []bool {
	sg := &u.R.X.Sub[j]
	tagged := make([]bool, sg.NumNodes())
	phi := u.R.Phi[j]
	for _, l := range sg.RevTopo() {
		if l == sg.Sink {
			continue
		}
		t := u.T[j][l]
		for _, le := range sg.Out(l) {
			if phi[le] <= 0 {
				continue
			}
			head := sg.Head[le]
			if tagged[head] {
				tagged[l] = true
				break
			}
			if m.rho[l] > sg.Beta[le]*m.rho[head] {
				continue
			}
			if t == 0 {
				continue
			}
			if phi[le] >= eta/t*(m.linkD[le]-m.rho[l]) {
				tagged[l] = true
				break
			}
		}
	}
	return tagged
}

func refBlocked(phi []float64, sg *transform.Subgraph, tagged []bool, le int32) bool {
	if tagged == nil {
		return false
	}
	return phi[le] == 0 && tagged[sg.Head[le]]
}

// refApplyGamma visits every non-sink node, single-out-edge ones
// included, and reports which nodes it wrote to.
func refApplyGamma(u *flow.Usage, j int, m refMarginals, tagged []bool, eta float64, next *flow.Routing) (wrote []int32) {
	sg := &u.R.X.Sub[j]
	phi := u.R.Phi[j]
	for _, ln := range sg.Topo {
		if ln == sg.Sink {
			continue
		}
		best := int32(-1)
		bestD := math.Inf(1)
		outs := sg.Out(ln)
		for _, le := range outs {
			if refBlocked(phi, sg, tagged, le) {
				continue
			}
			if d := m.linkD[le]; d < bestD {
				bestD = d
				best = le
			}
		}
		if best < 0 {
			continue
		}
		wrote = append(wrote, ln)
		t := u.T[j][ln]
		moved := 0.0
		for _, le := range outs {
			if le == best {
				continue
			}
			if refBlocked(phi, sg, tagged, le) {
				next.Phi[j][le] = 0
				continue
			}
			a := m.linkD[le] - bestD
			var delta float64
			if t > 0 {
				delta = math.Min(phi[le], eta*a/t)
			} else {
				delta = phi[le]
			}
			next.Phi[j][le] = phi[le] - delta
			moved += delta
		}
		next.Phi[j][best] = phi[best] + moved
	}
	return wrote
}

// refWave is one reference iteration's per-commodity outputs.
type refWave struct {
	u        *flow.Usage
	m        []refMarginals
	tagged   [][]bool
	wrote    [][]int32
	next     *flow.Routing
	messages int // Σ_j wave messages
	rounds   int // max_j wave rounds
}

func refIterate(r *flow.Routing, ext []float64, eta float64, blocking bool) refWave {
	u := flow.Evaluate(r)
	nc := r.X.NumCommodities()
	w := refWave{u: u, m: make([]refMarginals, nc), tagged: make([][]bool, nc), wrote: make([][]int32, nc), next: r.Clone()}
	for j := 0; j < nc; j++ {
		w.m[j] = refComputeMarginals(u, ext, j)
		if blocking {
			w.tagged[j] = refComputeTags(u, j, w.m[j], eta)
		}
		w.wrote[j] = refApplyGamma(u, j, w.m[j], w.tagged[j], eta, w.next)
		w.messages += w.m[j].messages
		w.rounds = max(w.rounds, w.m[j].rounds)
	}
	return w
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkKernelParity steps an engine from start in lockstep with the
// reference wave and compares, every iteration: the φ rows going in,
// the fused sweep's ρ, per-link marginals and tag vectors on the same
// evaluation, and the accumulated protocol accounting. perturb
// (optional) runs between iterations, for callers that move the
// external usage ext the way a price exchange does; the engine gets ext
// installed again after it (Engine.SetExternal).
func checkKernelParity(t *testing.T, x *transform.Extended, ext []float64, start *flow.Routing, eta float64, blocking bool, iters int, perturb func(i int)) {
	t.Helper()
	e, err := NewFrom(x, start, Config{Eta: eta, DisableBlocking: !blocking})
	if err != nil {
		t.Fatal(err)
	}
	r, err := start.Rebind(x)
	if err != nil {
		t.Fatal(err)
	}
	maxN, maxE := 0, 0
	for j := range x.Sub {
		maxN, maxE = max(maxN, x.Sub[j].NumNodes()), max(maxE, x.Sub[j].NumEdges())
	}
	rhoBuf, linkDBuf, tagBuf := make([]float64, maxN), make([]float64, maxE), make([]bool, maxN)
	var want Stats
	for i := 0; i < iters; i++ {
		if perturb != nil {
			perturb(i)
		}
		e.SetExternal(ext)
		ref := refIterate(r, ext, eta, blocking)

		price := nodePrices(ref.u, ext)
		for j := range x.Sub {
			sg := &x.Sub[j]
			rho, linkD := rhoBuf[:sg.NumNodes()], linkDBuf[:sg.NumEdges()]
			var tagged []bool
			if blocking {
				tagged = tagBuf[:sg.NumNodes()]
			}
			sweep(ref.u, j, price, rho, linkD, tagged, eta)
			if k := sameBits(rho, ref.m[j].rho); k >= 0 {
				t.Fatalf("iteration %d commodity %d: rho[%d] = %v, reference %v", i, j, k, rho[k], ref.m[j].rho[k])
			}
			if k := sameBits(linkD, ref.m[j].linkD); k >= 0 {
				t.Fatalf("iteration %d commodity %d: linkD[%d] = %v, reference %v", i, j, k, linkD[k], ref.m[j].linkD[k])
			}
			for ln := range tagged {
				if tagged[ln] != ref.tagged[j][ln] {
					t.Fatalf("iteration %d commodity %d: tag of local node %d = %v, reference %v", i, j, ln, tagged[ln], ref.tagged[j][ln])
				}
			}
			if sg.NumEdges() != ref.m[j].messages || sg.Depth() != ref.m[j].rounds {
				t.Fatalf("commodity %d: topology constants (%d messages, %d rounds), reference wave counted (%d, %d)",
					j, sg.NumEdges(), sg.Depth(), ref.m[j].messages, ref.m[j].rounds)
			}
			// The reference writes at a single-out-edge node only the
			// value already there; anywhere else the branch list must
			// cover it.
			for _, ln := range ref.wrote[j] {
				if len(sg.Out(ln)) >= 2 {
					continue
				}
				le := sg.Out(ln)[0]
				if math.Float64bits(ref.next.Phi[j][le]) != math.Float64bits(r.Phi[j][le]) {
					t.Fatalf("iteration %d commodity %d: reference Γ changed φ at single-out-edge node %d (%v → %v)",
						i, j, ln, r.Phi[j][le], ref.next.Phi[j][le])
				}
			}
		}

		want.Iterations++
		want.Messages += 2 * ref.messages
		want.Rounds += 2 * ref.rounds
		for j := range x.Sub {
			if k := sameBits(e.R.Phi[j], r.Phi[j]); k >= 0 {
				t.Fatalf("iteration %d commodity %d: φ[%d] = %v, reference %v",
					i, j, k, e.R.Phi[j][k], r.Phi[j][k])
			}
		}
		e.Step()
		if e.Stats() != want {
			t.Fatalf("iteration %d: stats %+v, reference %+v", i, e.Stats(), want)
		}
		r = ref.next
	}
	for j := range x.Sub {
		if k := sameBits(e.R.Phi[j], r.Phi[j]); k >= 0 {
			t.Fatalf("after %d iterations commodity %d: φ[%d] = %v, reference %v",
				iters, j, k, e.R.Phi[j][k], r.Phi[j][k])
		}
	}
}

// TestKernelMatchesReferenceWave is the licence for the fused iterate
// layer: over whole trajectories, on every instance family the other
// parity tests use, it reproduces the three-pass wave exactly.
func TestKernelMatchesReferenceWave(t *testing.T) {
	const iters = 300
	build := func(p *stream.Problem, err error, opts transform.Options) *transform.Extended {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		x, err := transform.Build(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	type instance struct {
		name string
		x    *transform.Extended
		eta  float64
	}
	var instances []instance
	add := func(name string, eta float64, p *stream.Problem, err error) {
		instances = append(instances, instance{name, build(p, err, transform.Options{Epsilon: 0.2}), eta})
	}
	p, err := randnet.Generate(randnet.Config{Seed: 2, Nodes: 40, Commodities: 3})
	add("E4-paper", 0.04, p, err)
	p, err = randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	add("E6-many-commodity", 0.04, p, err)
	for seed := int64(1); seed <= 5; seed++ {
		p, err = randnet.Generate(randnet.Config{Seed: seed, Nodes: 24, Commodities: 4})
		add(fmt.Sprintf("sweep-seed%d", seed), 0.04, p, err)
	}
	sparse, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 1000})
	add("sparse-J1k", 0.005, sparse, err)

	for _, in := range instances {
		for _, blocking := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/blocking=%v", in.name, blocking), func(t *testing.T) {
				checkKernelParity(t, in.x, nil, flow.NewInitial(in.x), in.eta, blocking, iters, nil)
			})
		}
	}

	// One shard of four: a quarter of the commodities, priced against a
	// non-zero external usage that moves the way exchange rounds move it.
	var subset []int
	for gi := range sparse.Commodities {
		if gi%4 == 0 {
			subset = append(subset, gi)
		}
	}
	x := build(sparse, nil, transform.Options{Epsilon: 0.2, Commodities: subset})
	ext := make([]float64, x.SharedNodes)
	for i := range ext {
		if c := x.Capacity[i]; !math.IsInf(c, 1) {
			ext[i] = c * 0.1 * float64(i%7+1) / 7
		}
	}
	for _, blocking := range []bool{true, false} {
		t.Run(fmt.Sprintf("shard-subset-external/blocking=%v", blocking), func(t *testing.T) {
			checkKernelParity(t, x, ext, flow.NewInitial(x), 0.005, blocking, iters, func(i int) {
				if i%25 == 24 {
					for k := range ext {
						ext[k] *= 1.02
					}
				}
			})
		})
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
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestKernelShortcutCases pins the states where the fused kernel takes a
// different road from the reference: nodes the branch list skips, and
// values the price vector and the topology constants replace. Each case
// asserts that the state it is named for really occurs, then compares
// trajectories.
func TestKernelShortcutCases(t *testing.T) {
	// localNode resolves a node name to commodity 0's local index.
	localNode := func(x *transform.Extended, name string) int32 {
		for n := range graph.NodeID(x.NumNodes()) {
			if x.Name(n) == name {
				return graph.Local(x.Sub[0].Nodes, n)
			}
		}
		t.Fatalf("no node %q", name)
		return -1
	}
	admit := func(x *transform.Extended, share float64) *flow.Routing {
		r := flow.NewInitial(x)
		r.Phi[0][x.Sub[0].InputLink] = share
		r.Phi[0][x.Sub[0].DiffLink] = 1 - share
		return r
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
		ref := refIterate(r, nil, 0.05, true)
		if !ref.tagged[0][sg.Head[le]] {
			t.Fatal("head of a's out-edge is not tagged in the reference wave")
		}
		for _, ln := range ref.wrote[0] {
			if ln == a {
				t.Fatal("reference Γ wrote at the blocked single-out-edge node")
			}
		}
		checkKernelParity(t, x, nil, r, 0.05, true, 50, nil)
	})

	t.Run("uncapacitated nodes price at zero", func(t *testing.T) {
		x := diamond(t, 40)
		x.Epsilon = 0 // no barrier
		for n, p := range nodePrices(flow.Evaluate(admit(x, 0.5)), nil) {
			if p != 0 {
				t.Fatalf("node %s priced %v without a barrier", x.Name(graph.NodeID(n)), p)
			}
		}
		checkKernelParity(t, x, nil, admit(x, 0.5), 0.05, true, 50, nil)
		// With the default barrier the dummy and the sink still do.
		x = diamond(t, 40)
		price := nodePrices(flow.Evaluate(admit(x, 0.5)), nil)
		c := &x.Commodities[0]
		if price[c.Dummy] != 0 || price[c.Sink] != 0 || price[c.Source] == 0 {
			t.Fatalf("prices dummy %v sink %v source %v", price[c.Dummy], price[c.Sink], price[c.Source])
		}
	})

	t.Run("LinkD=+Inf during a capacity overshoot", func(t *testing.T) {
		// b's capacity is zero, below what the even split sends it, so
		// the clamp leaves nothing under the barrier: b prices at
		// D'(0) = 1/0² = +Inf, and so do the marginals of every link into
		// and out of it.
		x := diamond(t, 4)
		for n := range graph.NodeID(x.NumNodes()) {
			if x.Name(n) == "b" {
				x.Capacity[n] = 0
			}
		}
		sg := &x.Sub[0]
		r := admit(x, 1)
		ref := refIterate(r, nil, 0.05, true)
		b := localNode(x, "b")
		if !math.IsInf(ref.m[0].linkD[sg.Out(b)[0]], 1) {
			t.Fatalf("LinkD out of b = %v, want +Inf", ref.m[0].linkD[sg.Out(b)[0]])
		}
		for _, ln := range ref.wrote[0] {
			if ln == b {
				t.Fatal("reference Γ wrote at a node whose only marginal is +Inf")
			}
		}
		checkKernelParity(t, x, nil, r, 0.05, true, 50, nil)
		checkKernelParity(t, x, nil, r, 0.05, false, 50, nil)
	})

	t.Run("t=0 nodes", func(t *testing.T) {
		// Everything rejected: no node past the dummy carries traffic, so
		// Γ at src takes the t → 0 limit and no tag can fire.
		x := diamond(t, 40)
		r := flow.NewInitial(x)
		ref := refIterate(r, nil, 0.05, true)
		src := x.Sub[0].Source
		if ref.u.T[0][src] != 0 {
			t.Fatalf("t(src) = %v at the all-rejected start", ref.u.T[0][src])
		}
		for ln, tag := range ref.tagged[0] {
			if tag && int32(ln) != x.Sub[0].Dummy {
				t.Fatalf("local node %d tagged with zero traffic", ln)
			}
		}
		checkKernelParity(t, x, nil, r, 0.05, true, 50, nil)
	})

	t.Run("dummy is the only branch node", func(t *testing.T) {
		x := singlePath(t, 10, 1000, 20)
		sg := &x.Sub[0]
		if br := sg.Branch(); len(br) != 1 || br[0] != sg.Dummy {
			t.Fatalf("branch list %v, want only the dummy (%d)", br, sg.Dummy)
		}
		checkKernelParity(t, x, nil, flow.NewInitial(x), 0.5, true, 300, nil)
		checkKernelParity(t, x, nil, flow.NewInitial(x), 0.5, false, 300, nil)
	})
}
