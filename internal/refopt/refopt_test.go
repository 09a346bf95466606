package refopt

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

func buildChain(t *testing.T, srcCap, bw, lambda float64, beta, cost float64, u utility.Function) *transform.Extended {
	t.Helper()
	net := stream.NewNetwork()
	src, _ := net.AddServer("src", srcCap)
	sink, _ := net.AddSink("sink")
	e, _ := net.AddLink(src, sink, bw)
	p := stream.NewProblem(net)
	c, err := p.AddCommodity("S", src, sink, lambda, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetEdge(c, e, stream.EdgeParams{Beta: beta, Cost: cost}); err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func solve(t *testing.T, x *transform.Extended) *Result {
	t.Helper()
	res, err := Solve(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNodeCapacityBinds(t *testing.T) {
	// src capacity 10 with cost 2/unit: a* = 5 even though λ = 20.
	x := buildChain(t, 10, 1e6, 20, 1, 2, utility.Linear{Slope: 1})
	res := solve(t, x)
	if math.Abs(res.Admitted[0]-5) > 1e-6 {
		t.Fatalf("a = %g, want 5 (CPU-bound)", res.Admitted[0])
	}
	if math.Abs(res.Utility-5) > 1e-6 {
		t.Fatalf("U = %g, want 5", res.Utility)
	}
}

func TestBandwidthBindsAfterShrinkage(t *testing.T) {
	// β = 0.5: the wire carries 0.5a, so B = 4 allows a = 8; CPU allows
	// 10. Bandwidth binds: a* = 8.
	x := buildChain(t, 10, 4, 20, 0.5, 1, utility.Linear{Slope: 1})
	res := solve(t, x)
	if math.Abs(res.Admitted[0]-8) > 1e-6 {
		t.Fatalf("a = %g, want 8 (bandwidth-bound after shrinkage)", res.Admitted[0])
	}
}

func TestExpansionTightensBandwidth(t *testing.T) {
	// β = 2: wire carries 2a, B = 4 allows a = 2 < CPU bound 10.
	x := buildChain(t, 10, 4, 20, 2, 1, utility.Linear{Slope: 1})
	res := solve(t, x)
	if math.Abs(res.Admitted[0]-2) > 1e-6 {
		t.Fatalf("a = %g, want 2 (expansion-bound)", res.Admitted[0])
	}
}

func TestOfferedRateBinds(t *testing.T) {
	x := buildChain(t, 1e6, 1e6, 7, 1, 1, utility.Linear{Slope: 1})
	res := solve(t, x)
	if math.Abs(res.Admitted[0]-7) > 1e-6 {
		t.Fatalf("a = %g, want λ = 7", res.Admitted[0])
	}
}

func TestLogUtilityFullAdmissionWhenUncapacitated(t *testing.T) {
	u := utility.Log{Weight: 3, Scale: 1}
	x := buildChain(t, 1e6, 1e6, 10, 1, 1, u)
	res := solve(t, x)
	if math.Abs(res.Admitted[0]-10) > 1e-4 {
		t.Fatalf("a = %g, want 10 (U increasing)", res.Admitted[0])
	}
	if math.Abs(res.Utility-u.Value(10)) > 1e-6 {
		t.Fatalf("U = %g, want %g", res.Utility, u.Value(10))
	}
}

// sharedCapacity builds two commodities through one shared server of
// capacity 10 (cost 1 each).
func sharedCapacity(t *testing.T, u1, u2 utility.Function, l1, l2 float64) *transform.Extended {
	t.Helper()
	net := stream.NewNetwork()
	s1, _ := net.AddServer("s1", 1e6)
	s2, _ := net.AddServer("s2", 1e6)
	mid, _ := net.AddServer("mid", 10)
	k1, _ := net.AddSink("k1")
	k2, _ := net.AddSink("k2")
	a1, _ := net.AddLink(s1, mid, 1e6)
	a2, _ := net.AddLink(s2, mid, 1e6)
	b1, _ := net.AddLink(mid, k1, 1e6)
	b2, _ := net.AddLink(mid, k2, 1e6)
	p := stream.NewProblem(net)
	c1, err := p.AddCommodity("C1", s1, k1, l1, u1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.AddCommodity("C2", s2, k2, l2, u2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []graph.EdgeID{a1, b1} {
		if err := p.SetEdge(c1, e, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []graph.EdgeID{a2, b2} {
		if err := p.SetEdge(c2, e, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestSymmetricLogSplitsEvenly(t *testing.T) {
	// Two identical log utilities sharing capacity 10 at "mid" (cost 1
	// at mid, but note each commodity also consumes mid's capacity on
	// its outbound processing): by symmetry a1 = a2.
	u := utility.Log{Weight: 1, Scale: 1}
	x := sharedCapacity(t, u, u, 50, 50)
	// The PWL surrogate is flat within one segment, so the split is
	// only determined up to a segment width (λ/segments); use fine
	// segments and a matching tolerance.
	res, err := Solve(x, Options{Segments: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Admitted[0]-res.Admitted[1]) > 0.11 {
		t.Fatalf("asymmetric split: %v", res.Admitted)
	}
	total := res.Admitted[0] + res.Admitted[1]
	// mid processes each commodity once (cost 1 per unit): a1+a2 = 10.
	if math.Abs(total-10) > 1e-6 {
		t.Fatalf("total = %g, want 10 (capacity exhausted)", total)
	}
}

func TestWeightedLogSplitsProportionally(t *testing.T) {
	// max w1·log(1+a1) + w2·log(1+a2) s.t. a1+a2 = C: water-filling
	// gives (1+a1)/(1+a2) = w1/w2.
	u1 := utility.Log{Weight: 3, Scale: 1}
	u2 := utility.Log{Weight: 1, Scale: 1}
	x := sharedCapacity(t, u1, u2, 50, 50)
	res, err := Solve(x, Options{Segments: 400})
	if err != nil {
		t.Fatal(err)
	}
	ratio := (1 + res.Admitted[0]) / (1 + res.Admitted[1])
	if math.Abs(ratio-3) > 0.15 {
		t.Fatalf("(1+a1)/(1+a2) = %g, want 3", ratio)
	}
}

func TestLinearPrefersHigherSlope(t *testing.T) {
	// Linear utilities: all shared capacity goes to the higher slope.
	x := sharedCapacity(t, utility.Linear{Slope: 2}, utility.Linear{Slope: 1}, 50, 50)
	res := solve(t, x)
	if res.Admitted[0] < 10-1e-6 || res.Admitted[1] > 1e-6 {
		t.Fatalf("admitted = %v, want [10 0]", res.Admitted)
	}
}

func TestSegmentsImproveAccuracy(t *testing.T) {
	u := utility.Log{Weight: 1, Scale: 1}
	x := sharedCapacity(t, u, utility.Linear{Slope: 0.05}, 50, 50)
	coarse, err := Solve(x, Options{Segments: 4})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Solve(x, Options{Segments: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Finer PWL can only improve (inner approximation).
	if fine.Utility < coarse.Utility-1e-9 {
		t.Fatalf("finer segments decreased utility: %g -> %g", coarse.Utility, fine.Utility)
	}
}

func TestMultiPathUsesBothPaths(t *testing.T) {
	// src -> {a,b} -> sink with per-path capacity 6 each and λ = 20:
	// optimal admits 12 using both paths.
	net := stream.NewNetwork()
	src, _ := net.AddServer("src", 1e6)
	a, _ := net.AddServer("a", 6)
	b, _ := net.AddServer("b", 6)
	sink, _ := net.AddSink("sink")
	e1, _ := net.AddLink(src, a, 1e6)
	e2, _ := net.AddLink(src, b, 1e6)
	e3, _ := net.AddLink(a, sink, 1e6)
	e4, _ := net.AddLink(b, sink, 1e6)
	p := stream.NewProblem(net)
	c, err := p.AddCommodity("S", src, sink, 20, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []graph.EdgeID{e1, e2, e3, e4} {
		if err := p.SetEdge(c, e, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := solve(t, x)
	if math.Abs(res.Admitted[0]-12) > 1e-6 {
		t.Fatalf("a = %g, want 12 (both paths saturated)", res.Admitted[0])
	}
}

func TestFigure1Reference(t *testing.T) {
	// Figure-1 topology with unit parameters and capacity 10 per
	// server: both streams are 4 stages deep; server3 and server5 are
	// shared. Solvable sanity bound: each stream admits at most 10, and
	// total utility is bounded by shared-server capacity.
	p, err := stream.Figure1(stream.Figure1Config{
		ServerCapacity: 10,
		Bandwidth:      100,
		MaxRate1:       30,
		MaxRate2:       30,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := solve(t, x)
	// Stream S1 can route around the shared servers (via 2 and 4) up to
	// 10; S2 must pass through both 3 and 5. Whatever the split, the
	// reference optimum must be feasible and nontrivial.
	if res.Utility < 10 || res.Utility > 20+1e-9 {
		t.Fatalf("utility = %g, want within (10, 20]", res.Utility)
	}
	// Cross-check: the gradient algorithm cannot beat the reference.
	if res.Admitted[0] > 30+1e-9 || res.Admitted[1] > 30+1e-9 {
		t.Fatalf("admitted exceeds offered: %v", res.Admitted)
	}
}

func TestShadowPriceOnBindingBottleneck(t *testing.T) {
	// Node capacity 10 binds (cost 2 ⇒ a* = 5 of λ = 20): its shadow
	// price must be U'(a)/c = 0.5 — one more capacity unit admits 0.5
	// more source units, each worth 1.
	x := buildChain(t, 10, 1e6, 20, 1, 2, utility.Linear{Slope: 1})
	res := solve(t, x)
	src, _ := x.NumNodes(), 0
	_ = src
	var price float64
	for n := 0; n < x.NumNodes(); n++ {
		if x.Name(graph.NodeID(n)) == "src" {
			price = res.ShadowPrice[n]
		}
	}
	if math.Abs(price-0.5) > 1e-6 {
		t.Fatalf("shadow price = %g, want 0.5", price)
	}
}

func TestShadowPriceZeroWhenOfferBound(t *testing.T) {
	// λ binds, capacity does not: every shadow price is zero.
	x := buildChain(t, 1e6, 1e6, 7, 1, 1, utility.Linear{Slope: 1})
	res := solve(t, x)
	for n, price := range res.ShadowPrice {
		if math.Abs(price) > 1e-9 {
			t.Fatalf("node %d: shadow price %g on a non-binding instance", n, price)
		}
	}
}

func TestShadowPricePredictsCapacityValue(t *testing.T) {
	// Complementary check on a random instance: bump the highest-priced
	// node's capacity by δ; the optimum must rise by ≈ price·δ.
	p, err := randnet.Generate(randnet.Config{Seed: 2, Nodes: 16, Commodities: 2, Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := solve(t, x)
	best, bestPrice := -1, 0.0
	for n, price := range base.ShadowPrice {
		if x.Kind(graph.NodeID(n)) == transform.Proc && price > bestPrice {
			best, bestPrice = n, price
		}
	}
	if best < 0 {
		t.Skip("no binding processing node on this instance")
	}
	const h = 1e-3
	q, err := randnet.Generate(randnet.Config{Seed: 2, Nodes: 16, Commodities: 2, Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q.Net.Capacity[best] += h
	xq, err := transform.Build(q, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bumped := solve(t, xq)
	predicted := bestPrice * h
	actual := bumped.Utility - base.Utility
	if math.Abs(predicted-actual) > 1e-6 {
		t.Fatalf("price %g predicts Δ %g, measured %g", bestPrice, predicted, actual)
	}
}
