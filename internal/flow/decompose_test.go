package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestDecomposeRatesSumToLambda(t *testing.T) {
	x := randomInstance(t, 11)
	r := rand.New(rand.NewSource(99))
	rt := randomRouting(x, r)
	u := Evaluate(rt)
	for j := range x.Commodities {
		paths, err := DecomposePaths(u, j)
		if err != nil {
			t.Fatal(err)
		}
		total, rejected := 0.0, 0.0
		for _, p := range paths {
			if p.Rate <= 0 {
				t.Fatalf("non-positive path rate %g", p.Rate)
			}
			total += p.Rate
			if p.ViaDiffLink {
				rejected += p.Rate
			}
		}
		lambda := x.Commodities[j].MaxRate
		if math.Abs(total-lambda) > 1e-6*(1+lambda) {
			t.Fatalf("commodity %d: path rates sum to %g, want λ = %g", j, total, lambda)
		}
		if want := lambda - u.AdmittedRate(j); math.Abs(rejected-want) > 1e-6*(1+lambda) {
			t.Fatalf("commodity %d: rejected paths carry %g, want λ − a = %g", j, rejected, want)
		}
	}
}

func TestDecomposePathsAreConnected(t *testing.T) {
	x := randomInstance(t, 4)
	r := rand.New(rand.NewSource(5))
	rt := randomRouting(x, r)
	u := Evaluate(rt)
	g := extendedGraph(x)
	for j := range x.Commodities {
		c := &x.Commodities[j]
		paths, err := DecomposePaths(u, j)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatal("no paths")
		}
		for _, p := range paths {
			if p.Nodes[0] != c.Dummy || p.Nodes[len(p.Nodes)-1] != c.Sink {
				t.Fatalf("path %v does not run dummy→sink", p.Nodes)
			}
			for i := 0; i+1 < len(p.Nodes); i++ {
				e := g.EdgeBetween(p.Nodes[i], p.Nodes[i+1])
				if e == graph.Invalid || x.Sub[j].LocalEdge(e) < 0 {
					t.Fatalf("path hop %d→%d not a member edge", p.Nodes[i], p.Nodes[i+1])
				}
			}
		}
	}
}

func TestDecomposeDeliveredMatchesBetaProduct(t *testing.T) {
	x := randomInstance(t, 8)
	r := rand.New(rand.NewSource(21))
	rt := randomRouting(x, r)
	u := Evaluate(rt)
	for j := range x.Commodities {
		paths, err := DecomposePaths(u, j)
		if err != nil {
			t.Fatal(err)
		}
		// Delivered (non-rejected) path rates must add to DeliveredRate.
		sum := 0.0
		for _, p := range paths {
			if !p.ViaDiffLink {
				sum += p.DeliveredRate
			}
		}
		if want := u.DeliveredRate(j); math.Abs(sum-want) > 1e-6*(1+want) {
			t.Fatalf("commodity %d: delivered path rates %g, want %g", j, sum, want)
		}
	}
}

func TestDecomposeFullRejection(t *testing.T) {
	x := randomInstance(t, 3)
	rt := NewInitial(x) // everything rejected
	u := Evaluate(rt)
	paths, err := DecomposePaths(u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || !paths[0].ViaDiffLink {
		t.Fatalf("want exactly the rejection path, got %d paths", len(paths))
	}
	if math.Abs(paths[0].Rate-x.Commodities[0].MaxRate) > 1e-9 {
		t.Fatalf("rejection path rate %g, want λ", paths[0].Rate)
	}
}

func TestQuickDecomposeCoversAllEdgesWithinBound(t *testing.T) {
	f := func(seed int64) bool {
		x := randomInstance(t, seed)
		r := rand.New(rand.NewSource(seed ^ 0x70))
		rt := randomRouting(x, r)
		u := Evaluate(rt)
		g := extendedGraph(x)
		for j := range x.Commodities {
			paths, err := DecomposePaths(u, j)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			// Classic decomposition bound: at most |E| paths.
			if len(paths) > x.NumEdges() {
				return false
			}
			// Reconstruct per-edge input rates from the paths and
			// compare with the evaluation.
			rebuilt := make([]float64, x.NumEdges())
			for _, p := range paths {
				carried := p.Rate // source units
				for i := 0; i+1 < len(p.Nodes); i++ {
					e := g.EdgeBetween(p.Nodes[i], p.Nodes[i+1])
					rebuilt[e] += carried
					carried *= x.Sub[j].Beta[x.Sub[j].LocalEdge(e)]
				}
			}
			for _, e := range x.Sub[j].Edges {
				tail := x.Edge(e).From
				want := u.TAt(j, tail) * rt.At(j, e)
				if math.Abs(rebuilt[e]-want) > 1e-6*(1+want) {
					t.Logf("seed %d commodity %d edge %d: rebuilt %g, want %g", seed, j, e, rebuilt[e], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
