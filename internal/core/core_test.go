package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gradient"
	"repro/internal/stream"
)

func figure1(t *testing.T) *stream.Problem {
	t.Helper()
	p, err := stream.Figure1(stream.Figure1Config{
		ServerCapacity: 10,
		Bandwidth:      100,
		MaxRate1:       30,
		MaxRate2:       30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSolveDefaultsToGradient(t *testing.T) {
	res, err := Solve(figure1(t), Options{MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != Gradient {
		t.Fatalf("algorithm = %q, want gradient", res.Algorithm)
	}
	if res.Utility <= 0 {
		t.Fatalf("utility = %g, want > 0", res.Utility)
	}
	if len(res.Admitted) != 2 || len(res.Commodities) != 2 {
		t.Fatalf("admitted/commodities = %v/%v", res.Admitted, res.Commodities)
	}
	if res.Iterations != 2000 {
		t.Fatalf("iterations = %d, want 2000", res.Iterations)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
}

func TestSolveReference(t *testing.T) {
	res, err := Solve(figure1(t), Options{Algorithm: Reference})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.ReferenceUtility) || res.Utility != res.ReferenceUtility {
		t.Fatalf("reference utility mismatch: %g vs %g", res.Utility, res.ReferenceUtility)
	}
}

func TestGradientNeverBeatsReference(t *testing.T) {
	// The second case is the quickstart's shape: task B filters its
	// stream, E expands it, under a tight barrier.
	filtered, err := stream.Figure1(stream.Figure1Config{
		ServerCapacity: 10, Bandwidth: 40, MaxRate1: 20, MaxRate2: 20,
		TaskBeta: map[string]float64{"B": 0.5, "E": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    *stream.Problem
		opts Options
	}{
		{figure1(t), Options{MaxIters: 4000, Eta: 0.2}},
		{filtered, Options{MaxIters: 4000, Eta: 0.05, Epsilon: 0.05}},
	} {
		ref, err := Solve(tc.p, Options{Algorithm: Reference, Epsilon: tc.opts.Epsilon})
		if err != nil {
			t.Fatal(err)
		}
		grad, err := Solve(tc.p, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if grad.Utility > ref.Utility+1e-6 {
			t.Fatalf("gradient %g exceeds reference %g", grad.Utility, ref.Utility)
		}
		if grad.Utility < 0.85*ref.Utility {
			t.Fatalf("gradient %g below 85%% of reference %g", grad.Utility, ref.Utility)
		}
	}
}

func TestUsageReport(t *testing.T) {
	res, err := Solve(figure1(t), Options{MaxIters: 3000, Eta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	servers, links := 0, 0
	for _, u := range res.Usage {
		switch u.Kind {
		case "server":
			servers++
		case "link":
			links++
		}
		if u.Utilization > 1+1e-9 {
			t.Fatalf("%s over capacity: %g", u.Name, u.Utilization)
		}
		if u.Utilization < 0 {
			t.Fatalf("%s negative utilization", u.Name)
		}
	}
	if servers != 8 {
		t.Fatalf("servers in report = %d, want 8", servers)
	}
	if links == 0 {
		t.Fatal("no links in report")
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	_, err := Solve(figure1(t), Options{Algorithm: "simulated-annealing"})
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
}

func TestSampleEvery(t *testing.T) {
	res, err := Solve(figure1(t), Options{MaxIters: 1000, SampleEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 11 {
		t.Fatalf("trace samples = %d, want 11", len(res.Trace))
	}
	if res.Trace[len(res.Trace)-1].Iteration != 999 {
		t.Fatal("final iteration not sampled")
	}
}

func TestInvalidProblemRejected(t *testing.T) {
	p := stream.NewProblem(stream.NewNetwork())
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestPricesReportedWithReference(t *testing.T) {
	res, err := Solve(figure1(t), Options{Algorithm: Reference})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Prices) == 0 {
		t.Fatal("no shadow prices on an overloaded instance")
	}
	for i, pr := range res.Prices {
		if pr.Price <= 0 {
			t.Fatalf("non-positive price %g reported", pr.Price)
		}
		if i > 0 && pr.Price > res.Prices[i-1].Price {
			t.Fatal("prices not sorted descending")
		}
		if pr.Kind != "server" && pr.Kind != "link" {
			t.Fatalf("unknown kind %q", pr.Kind)
		}
	}
}

func TestSolveExplain(t *testing.T) {
	// Figure 1 at these rates is capacity-limited: both commodities are
	// partially rejected, so the attribution must name bottlenecks.
	res, err := Solve(figure1(t), Options{MaxIters: 4000, Eta: 0.2, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explain) != 2 {
		t.Fatalf("explain entries = %d, want 2", len(res.Explain))
	}
	for j, ce := range res.Explain {
		if ce.Name != res.Commodities[j] {
			t.Fatalf("explain[%d] name %q != commodity %q", j, ce.Name, res.Commodities[j])
		}
		if math.Abs(ce.Admitted-res.Admitted[j]) > 1e-9 {
			t.Fatalf("explain[%d] admitted %g != result %g", j, ce.Admitted, res.Admitted[j])
		}
		if ce.Admitted < ce.Offered-1 {
			// Partially rejected: a bottleneck must be named, on the
			// original network, with a positive shadow price.
			if len(ce.Binding) == 0 {
				t.Fatalf("explain[%d] rejected traffic but has no binding resource: %+v", j, ce)
			}
			top := ce.Binding[0]
			if top.Price <= 0 || (top.Kind != "server" && top.Kind != "link") || top.Name == "" {
				t.Fatalf("explain[%d] bad binding entry %+v", j, top)
			}
		}
	}

	// Off by default.
	plain, err := Solve(figure1(t), Options{MaxIters: 100})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Explain != nil {
		t.Fatal("Explain populated without Options.Explain")
	}
}

// TestStationaryTolStopsEarly holds both step modes of the one gradient
// loop to the same contract: Theorem 2 stationarity ends the run early,
// the trace still ends where the run stopped, the protocol accounting is
// filled in, and divergence is an error.
func TestStationaryTolStopsEarly(t *testing.T) {
	for _, alg := range []Algorithm{Gradient, GradientAdaptive} {
		t.Run(string(alg), func(t *testing.T) {
			res, err := Solve(figure1(t), Options{
				Algorithm:     alg,
				MaxIters:      50000,
				Eta:           0.2,
				StationaryTol: 0.05,
				SampleEvery:   1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations >= 50000 {
				t.Fatal("stationarity detection never fired")
			}
			if n := len(res.Trace); n < 2 || res.Trace[n-1].Iteration != res.Iterations-1 {
				t.Fatalf("trace %+v does not end at the last iteration run (%d)", res.Trace, res.Iterations-1)
			}
			if res.Utility <= 0 {
				t.Fatalf("stopped at utility %g", res.Utility)
			}
			if res.Messages == 0 || res.Rounds == 0 {
				t.Fatalf("protocol accounting empty: %d messages, %d rounds", res.Messages, res.Rounds)
			}

			// A NaN ε makes every cost and price NaN, the one state the
			// iteration cannot recover from in either step mode.
			_, err = Solve(figure1(t), Options{Algorithm: alg, MaxIters: 500, Epsilon: math.NaN()})
			if !errors.Is(err, gradient.ErrDiverged) {
				t.Fatalf("NaN cost: err = %v, want ErrDiverged", err)
			}
		})
	}
}
