package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/transform"
)

// randomInstance builds a random extended problem.
func randomInstance(t testing.TB, seed int64) *transform.Extended {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	nodes := 10 + r.Intn(20)
	layers := 3 + r.Intn(3)
	maxCom := nodes / layers
	if maxCom > 3 {
		maxCom = 3
	}
	p, err := randnet.Generate(randnet.Config{
		Seed:        seed,
		Nodes:       nodes,
		Commodities: 1 + r.Intn(maxCom),
		Layers:      layers,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// randomRouting draws a random valid routing set: at every node with
// member out-edges, random positive fractions normalized to one.
func randomRouting(x *transform.Extended, r *rand.Rand) *Routing {
	rt := NewZero(x)
	g := extendedGraph(x)
	for j := range x.Commodities {
		sg := &x.Sub[j]
		sink := x.Commodities[j].Sink
		for n := 0; n < x.NumNodes(); n++ {
			node := graph.NodeID(n)
			if node == sink {
				continue
			}
			var outs []graph.EdgeID
			for _, e := range g.Out(node) {
				if x.Sub[j].LocalEdge(e) >= 0 {
					outs = append(outs, e)
				}
			}
			if len(outs) == 0 {
				continue
			}
			total := 0.0
			weights := make([]float64, len(outs))
			for i := range outs {
				weights[i] = 0.05 + r.Float64()
				total += weights[i]
			}
			for i, e := range outs {
				rt.Phi[j][sg.LocalEdge(e)] = weights[i] / total
			}
		}
	}
	return rt
}

// TestQuickFlowConservation verifies eq. (7) on random instances and
// routings: for every non-sink node n and commodity j,
// Σ_out t_n·φ_e − Σ_in β_e·t_tail·φ_e = r_n(j).
func TestQuickFlowConservation(t *testing.T) {
	f := func(seed int64) bool {
		x := randomInstance(t, seed)
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		rt := randomRouting(x, r)
		if err := rt.Validate(); err != nil {
			t.Logf("routing invalid: %v", err)
			return false
		}
		u := Evaluate(rt)
		g := extendedGraph(x)
		for j := range x.Commodities {
			c := &x.Commodities[j]
			for n := 0; n < x.NumNodes(); n++ {
				node := graph.NodeID(n)
				if node == c.Sink {
					continue
				}
				out := 0.0
				for _, e := range g.Out(node) {
					if x.Sub[j].LocalEdge(e) >= 0 {
						out += u.TAt(j, node) * rt.At(j, e)
					}
				}
				in := 0.0
				for _, e := range g.In(node) {
					if x.Sub[j].LocalEdge(e) >= 0 {
						in += u.ArriveAt(j, e)
					}
				}
				want := 0.0
				if node == c.Dummy {
					want = c.MaxRate
				}
				if math.Abs(out-in-want) > 1e-6*(1+math.Abs(out)) {
					t.Logf("seed %d commodity %d node %d: out %g in %g r %g", seed, j, n, out, in, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeliveredMatchesPotential verifies the Property-1
// consequence that sink arrivals equal g_sink(j) times the admitted
// rate, for ANY routing (path-independence of the shrinkage product).
func TestQuickDeliveredMatchesPotential(t *testing.T) {
	f := func(seed int64) bool {
		x := randomInstance(t, seed)
		r := rand.New(rand.NewSource(seed ^ 0xfeed))
		rt := randomRouting(x, r)
		u := Evaluate(rt)
		for j := range x.Commodities {
			c := &x.Commodities[j]
			// g_sink from the member subgraph, dummy links excluded.
			g := potentials(x, j)
			if got := x.Sub[j].SinkPotential(); got != g[c.Sink] {
				t.Logf("seed %d commodity %d: SinkPotential %g, oracle %g", seed, j, got, g[c.Sink])
				return false
			}
			want := g[c.Sink] * u.AdmittedRate(j)
			got := u.DeliveredRate(j)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Logf("seed %d commodity %d: delivered %g, g·a %g", seed, j, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// potentials recomputes g over member edges (dummy difference link
// excluded so the real network's path product is measured), walking the
// commodity's sparse subgraph and scattering to extended node IDs.
func potentials(x *transform.Extended, j int) []float64 {
	sg := &x.Sub[j]
	g := make([]float64, x.NumNodes())
	lg := make([]float64, sg.NumNodes())
	lg[sg.Dummy] = 1
	for _, ln := range sg.Topo {
		if lg[ln] == 0 {
			continue
		}
		for _, le := range sg.Out(ln) {
			if le == sg.DiffLink {
				continue
			}
			if head := sg.Head[le]; lg[head] == 0 {
				lg[head] = lg[ln] * sg.Beta[le]
			}
		}
	}
	for ln, n := range sg.Nodes {
		g[n] = lg[ln]
	}
	return g
}

// TestQuickUtilityLossComplement verifies U(a) + Y(λ−a) = U(λ) under
// arbitrary admission splits on random instances.
func TestQuickUtilityLossComplement(t *testing.T) {
	f := func(seed int64) bool {
		x := randomInstance(t, seed)
		r := rand.New(rand.NewSource(seed ^ 0xab))
		rt := randomRouting(x, r)
		u := Evaluate(rt)
		want := 0.0
		for j := range x.Commodities {
			c := &x.Commodities[j]
			want += c.Utility.Value(c.MaxRate)
		}
		got := u.Utility() + u.UtilityLoss()
		return math.Abs(got-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFNodeAggregation verifies eq. (5): FNode is exactly the sum
// of per-commodity per-edge usage grouped by tail.
func TestQuickFNodeAggregation(t *testing.T) {
	f := func(seed int64) bool {
		x := randomInstance(t, seed)
		r := rand.New(rand.NewSource(seed ^ 0xcc))
		rt := randomRouting(x, r)
		u := Evaluate(rt)
		sum := make([]float64, x.NumNodes())
		for j := range x.Commodities {
			sg := &x.Sub[j]
			for le, e := range sg.Edges {
				sum[x.Edge(e).From] += u.EdgeFlow(j, int32(le))
			}
		}
		for n := range sum {
			if math.Abs(sum[n]-u.FNode[n]) > 1e-9*(1+sum[n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEvaluateDeterministic: same routing evaluates identically.
func TestQuickEvaluateDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		x := randomInstance(t, seed)
		r := rand.New(rand.NewSource(seed))
		rt := randomRouting(x, r)
		a, b := Evaluate(rt), Evaluate(rt)
		for n := range a.FNode {
			if a.FNode[n] != b.FNode[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
