package experiments

import (
	"math"
	"testing"
)

// small keeps the suite fast; the full scale runs in cmd/experiments.
func small() Scale {
	return Scale{GradIters: 1500, BPIters: 8000, Nodes: 20, Commodities: 2}
}

func TestLogSampled(t *testing.T) {
	want := map[int]bool{
		0: true, 1: true, 5: true, 9: true, 10: true, 11: false,
		20: true, 99: false, 100: true, 110: false, 200: true,
		1000: true, 1100: false, 2000: true,
	}
	for iter, w := range want {
		if got := logSampled(iter); got != w {
			t.Errorf("logSampled(%d) = %v, want %v", iter, got, w)
		}
	}
}

func TestRunF4Shape(t *testing.T) {
	res, err := RunF4(42, small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal <= 0 {
		t.Fatalf("optimal = %g", res.Optimal)
	}
	if len(res.Gradient) == 0 || len(res.BackPres) == 0 {
		t.Fatal("empty curves")
	}
	// Gradient curve starts at zero utility (everything rejected) and
	// ends near the optimum, never exceeding it.
	if res.Gradient[0].Utility != 0 {
		t.Fatalf("gradient starts at %g, want 0", res.Gradient[0].Utility)
	}
	last := res.Gradient[len(res.Gradient)-1].Utility
	if last > res.Optimal+1e-6 {
		t.Fatalf("gradient exceeded the optimum: %g > %g", last, res.Optimal)
	}
	if last < 0.7*res.Optimal {
		t.Fatalf("gradient final %g below 70%% of optimum %g", last, res.Optimal)
	}
	// Back-pressure cumulative curve never exceeds the optimum either.
	for _, pt := range res.BackPres {
		if pt.Utility > res.Optimal+1e-6 {
			t.Fatalf("BP cumulative %g exceeds optimum %g", pt.Utility, res.Optimal)
		}
	}
}

func TestRunF4GradientFasterThanBP(t *testing.T) {
	// The headline claim: gradient reaches 95% far sooner (when both
	// reach it within budget). On seed 2 back-pressure gets there too
	// (measured: iteration 32 207 against gradient's 559).
	sc := Scale{GradIters: 4000, BPIters: 120000, Nodes: 24, Commodities: 2}
	for _, tc := range []struct {
		seed   int64
		bpHits bool
	}{{1, false}, {2, true}} {
		res, err := RunF4(tc.seed, sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.GradHit95 < 0 {
			t.Fatalf("seed %d: gradient did not reach 95%% within %d iterations", tc.seed, sc.GradIters)
		}
		if tc.bpHits && res.BPHit95 < 0 {
			t.Fatalf("seed %d: back-pressure did not reach 95%% within %d iterations", tc.seed, sc.BPIters)
		}
		if res.BPHit95 > 0 && res.BPHit95 <= res.GradHit95 {
			t.Fatalf("seed %d: BP hit 95%% at %d, not slower than gradient %d", tc.seed, res.BPHit95, res.GradHit95)
		}
	}
}

func TestRunT1(t *testing.T) {
	rows, err := RunT1([]int64{1, 2}, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Optimal <= 0 {
			t.Fatalf("seed %d: optimal %g", r.Seed, r.Optimal)
		}
	}
}

func TestRunT2EtaTradeoff(t *testing.T) {
	rows, err := RunT2(42, []float64{0.01, 0.08, 1000}, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger (sane) eta converges at least as fast when both hit.
	if rows[0].Hit95 > 0 && rows[1].Hit95 > 0 && rows[1].Hit95 > rows[0].Hit95 {
		t.Fatalf("eta=0.08 slower (%d) than eta=0.01 (%d)", rows[1].Hit95, rows[0].Hit95)
	}
	// The absurd eta must not converge cleanly to the optimum: it
	// either diverges, ends infeasible (utility "above" the optimum by
	// overload is not convergence), or lands short.
	bad := rows[2]
	if !bad.Diverged && bad.Feasible && bad.FinalPct > 0.99 {
		t.Fatalf("eta=1000 converged cleanly (%.3f of optimum)", bad.FinalPct)
	}
	if bad.Hit95 >= 0 {
		t.Fatalf("eta=1000 credited with feasible 95%% at iteration %d", bad.Hit95)
	}
}

func TestRunT3DepthScaling(t *testing.T) {
	rows, err := RunT3(3, []int{3, 8}, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].GradRoundsIter <= rows[0].GradRoundsIter {
		t.Fatalf("gradient rounds did not grow with depth: %+v", rows)
	}
	for _, r := range rows {
		if r.BPRoundsIter != 1 {
			t.Fatalf("BP rounds per iteration = %d, want 1", r.BPRoundsIter)
		}
		if r.GradRoundsIter != 2*r.Depth {
			t.Fatalf("gradient rounds %d != 2×depth %d", r.GradRoundsIter, 2*r.Depth)
		}
	}
}

func TestRunT4EpsilonTradeoff(t *testing.T) {
	rows, err := RunT4(42, []float64{0.5, 0.05}, small())
	if err != nil {
		t.Fatal(err)
	}
	// Smaller ε gets closer to the optimum but keeps less headroom.
	if rows[1].FinalPct <= rows[0].FinalPct {
		t.Fatalf("smaller eps not closer to optimum: %+v", rows)
	}
	if rows[1].MinSlack >= rows[0].MinSlack {
		t.Fatalf("smaller eps did not reduce headroom: %+v", rows)
	}
	for _, r := range rows {
		if r.MinSlack < 0 {
			t.Fatalf("eps=%g: infeasible operating point (slack %g)", r.Epsilon, r.MinSlack)
		}
	}
}

func TestRunE5FairnessGap(t *testing.T) {
	res, err := RunE5(42, small())
	if err != nil {
		t.Fatal(err)
	}
	// Max-utility must beat the max-throughput point in utility terms,
	// and the gradient algorithm must land between them... at least
	// above throughput and at most the reference.
	if res.RefUtility < res.ThroughputUtility-1e-9 {
		t.Fatalf("reference %g below throughput point %g", res.RefUtility, res.ThroughputUtility)
	}
	if res.GradUtility > res.RefUtility+1e-6 {
		t.Fatalf("gradient %g exceeds reference %g", res.GradUtility, res.RefUtility)
	}
	if res.GradUtility < 0.8*res.RefUtility {
		t.Fatalf("gradient %g below 80%% of reference %g", res.GradUtility, res.RefUtility)
	}
}

func TestRunE6GammaZeroIsClassicalFlow(t *testing.T) {
	rows, err := RunE6(42, []float64{0, 1}, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Optimal <= 0 {
			t.Fatalf("gamma %g: optimal %g", r.Gamma, r.Optimal)
		}
		if r.GradOptRatio < 0.7 || r.GradOptRatio > 1+1e-9 {
			t.Fatalf("gamma %g: gradient/optimal = %g", r.Gamma, r.GradOptRatio)
		}
		if r.CPUBound+r.NetBound == 0 {
			t.Fatalf("gamma %g: nothing binds at the optimum (not overloaded?)", r.Gamma)
		}
	}
}

func TestRunE7WarmTracksBetter(t *testing.T) {
	rows, err := RunE7(42, 4, 400, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	warmSum, coldSum := 0.0, 0.0
	for _, r := range rows[1:] { // epoch 0 is identical by construction
		warmSum += r.WarmUtil / r.Optimal
		coldSum += r.ColdUtil / r.Optimal
		if r.WarmUtil > r.Optimal+1e-6 || r.ColdUtil > r.Optimal+1e-6 {
			t.Fatalf("epoch %d exceeds optimal", r.Epoch)
		}
	}
	// Warm must track at least as well as cold (a hair of float noise
	// is tolerated: at this reduced scale the two can effectively tie).
	if warmSum < coldSum-0.01 {
		t.Fatalf("warm start tracked worse: %g vs %g", warmSum, coldSum)
	}
	if math.Abs(rows[0].WarmUtil-rows[0].ColdUtil) > 1e-9 {
		t.Fatal("epoch 0 warm and cold should coincide")
	}
}

func TestNames(t *testing.T) {
	for _, n := range Names() {
		if !ValidName(n) {
			t.Fatalf("name %q not valid", n)
		}
	}
	if ValidName("nope") {
		t.Fatal("bogus name accepted")
	}
}

func TestRunE8FailureRecovery(t *testing.T) {
	rows, err := RunE8(2, []float64{0.2}, Scale{GradIters: 3000, BPIters: 100, Nodes: 20, Commodities: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.FailedNode == "" {
		t.Fatal("no failed node recorded")
	}
	if r.PostOptimal <= 0 || r.PostOptimal > r.PreUtility*3 {
		t.Fatalf("post-failure optimum %g implausible vs pre %g", r.PostOptimal, r.PreUtility)
	}
	if r.RecoverIters < 0 {
		t.Fatal("warm restart never reached 95% of the post-failure optimum")
	}
	if r.ColdIters >= 0 && r.RecoverIters > r.ColdIters {
		t.Fatalf("warm recovery (%d) slower than cold start (%d)", r.RecoverIters, r.ColdIters)
	}
}
