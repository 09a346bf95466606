package flow

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/transform"
)

// denseUsage is the pre-sparse-refactor evaluation result in full-width
// global indexing, produced by denseEvaluate below.
type denseUsage struct {
	T      [][]float64 // [j][extended node]
	FEdge  [][]float64 // [j][extended edge]
	Arrive [][]float64 // [j][extended edge]
	FNode  []float64   // [extended node]
}

// denseEvaluate re-implements the dense full-graph evaluation sweep the
// sparse Subgraph representation replaced: full-width rows, the member
// DAG walked via graph.TopoSortFiltered with a per-edge membership
// filter, non-member edges skipped inline. It is the reference for the
// bitwise-parity contract: the sparse Evaluate must visit the same
// (node, edge) pairs in the same order, so every float operation — and
// therefore every accumulated rounding — is identical.
func denseEvaluate(t *testing.T, r *Routing) *denseUsage {
	t.Helper()
	x := r.X
	g := extendedGraph(x)
	nn, ne := x.NumNodes(), x.NumEdges()
	nc := x.NumCommodities()
	d := &denseUsage{
		T:      make([][]float64, nc),
		FEdge:  make([][]float64, nc),
		Arrive: make([][]float64, nc),
		FNode:  make([]float64, nn),
	}
	for j := 0; j < nc; j++ {
		d.T[j] = make([]float64, nn)
		d.FEdge[j] = make([]float64, ne)
		d.Arrive[j] = make([]float64, ne)
		c := &x.Commodities[j]
		topo, err := g.TopoSortFiltered(func(e graph.EdgeID) bool { return graph.Local(x.Sub[j].Edges, e) >= 0 })
		if err != nil {
			t.Fatal(err)
		}
		d.T[j][c.Dummy] = c.MaxRate
		for _, n := range topo {
			tn := d.T[j][n]
			if tn == 0 || n == c.Sink {
				continue
			}
			for _, e := range g.Out(n) {
				le := graph.Local(x.Sub[j].Edges, e)
				if le < 0 {
					continue
				}
				p := r.At(j, e)
				if p == 0 {
					continue
				}
				f := tn * p * x.Sub[j].Cost[le]
				d.FEdge[j][e] = f
				a := tn * p * x.Sub[j].Beta[le]
				d.Arrive[j][e] = a
				d.T[j][x.Edge(e).To] += a
				d.FNode[n] += f
			}
		}
	}
	return d
}

// parityInstances are the instances the sparse-vs-dense contract is
// checked on: the §6 paper instance (E4 scale), the many-commodity E6
// shape, and the seed sweep the sharded-parity tests use.
func parityInstances(t *testing.T) map[string]*transform.Extended {
	t.Helper()
	cfgs := map[string]randnet.Config{
		"paper-e4":          {Seed: 2, Nodes: 40, Commodities: 3},
		"many-commodity-e6": {Seed: 5, Nodes: 32, Layers: 4, Commodities: 8},
		"sweep-seed2":       {Seed: 2, Nodes: 24, Commodities: 4},
		"sweep-seed3":       {Seed: 3, Nodes: 24, Commodities: 4},
		"sweep-seed5":       {Seed: 5, Nodes: 24, Commodities: 4},
	}
	out := make(map[string]*transform.Extended, len(cfgs))
	for name, cfg := range cfgs {
		p, err := randnet.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = x
	}
	return out
}

// TestSparseEvaluateMatchesDenseReferenceBitwise: on every parity
// instance and several routings, the sparse evaluation equals the
// dense full-graph reference scan bit for bit — t, per-edge flows,
// arrivals, node usage, and the derived admitted/delivered rates.
func TestSparseEvaluateMatchesDenseReferenceBitwise(t *testing.T) {
	for name, x := range parityInstances(t) {
		t.Run(name, func(t *testing.T) {
			for _, frac := range []float64{0, 0.3, 0.75, 1} {
				r := NewInitial(x)
				for j := range x.Commodities {
					c := &x.Commodities[j]
					r.SetAt(j, c.InputLink, frac)
					r.SetAt(j, c.DiffLink, 1-frac)
				}
				u := Evaluate(r)
				d := denseEvaluate(t, r)
				if !sameBits(u.FNode, d.FNode) {
					t.Fatalf("frac %g: FNode differs from dense reference", frac)
				}
				for j := range x.Commodities {
					sg := &x.Sub[j]
					for ln, n := range sg.Nodes {
						if u.T[j][ln] != d.T[j][n] {
							t.Fatalf("frac %g commodity %d node %d: t %v vs dense %v",
								frac, j, n, u.T[j][ln], d.T[j][n])
						}
					}
					for le, e := range sg.Edges {
						if f := u.EdgeFlow(j, int32(le)); f != d.FEdge[j][e] {
							t.Fatalf("frac %g commodity %d edge %d: f %v vs dense %v",
								frac, j, e, f, d.FEdge[j][e])
						}
						if a := u.ArriveAt(j, e); a != d.Arrive[j][e] {
							t.Fatalf("frac %g commodity %d edge %d: arrive %v vs dense %v",
								frac, j, e, a, d.Arrive[j][e])
						}
					}
					// Non-member rows of the dense reference must be
					// zero — the sparse layout cannot even represent
					// flow there.
					for e := 0; e < x.NumEdges(); e++ {
						if graph.Local(sg.Edges, graph.EdgeID(e)) < 0 && d.FEdge[j][e] != 0 {
							t.Fatalf("dense reference put flow on non-member edge %d", e)
						}
					}
					c := &x.Commodities[j]
					wantAdmitted := c.MaxRate * r.At(j, c.InputLink)
					if got := u.AdmittedRate(j); got != wantAdmitted {
						t.Fatalf("frac %g commodity %d: admitted %v, dense %v", frac, j, got, wantAdmitted)
					}
				}
			}
		})
	}
}

// TestFNodeIsEdgeFlowSumBitwise: FNode is Σ EdgeFlow added in the
// forward sweep's order — commodity, then tail in topo order, then
// out-edge — bit for bit, on every parity instance and several
// routings. Edges the sweep skipped contribute EdgeFlow's exact 0.
func TestFNodeIsEdgeFlowSumBitwise(t *testing.T) {
	for name, x := range parityInstances(t) {
		t.Run(name, func(t *testing.T) {
			for _, frac := range []float64{0, 0.3, 0.75, 1} {
				r := NewInitial(x)
				for j := range x.Commodities {
					c := &x.Commodities[j]
					r.SetAt(j, c.InputLink, frac)
					r.SetAt(j, c.DiffLink, 1-frac)
				}
				u := Evaluate(r)
				sum := make([]float64, x.NumNodes())
				for j := range x.Commodities {
					sg := &x.Sub[j]
					for _, ln := range sg.Topo {
						for _, le := range sg.Out(ln) {
							sum[sg.Nodes[ln]] += u.EdgeFlow(j, le)
						}
					}
				}
				if !sameBits(sum, u.FNode) {
					t.Fatalf("frac %g: Σ EdgeFlow in sweep order differs from FNode", frac)
				}
			}
		})
	}
}
