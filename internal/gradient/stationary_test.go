package gradient

import (
	"testing"

	"repro/internal/flow"
)

func TestStationarityImprovesWithConvergence(t *testing.T) {
	x := randomExtended(t, 29)
	eng := New(x, Config{Backtrack: true})

	if err := run(eng, 50); err != nil {
		t.Fatal(err)
	}
	early := CheckStationarity(flow.Evaluate(eng.Routing()))
	if err := run(eng, 8000); err != nil {
		t.Fatal(err)
	}
	late := CheckStationarity(flow.Evaluate(eng.Routing()))

	if late >= early {
		t.Fatalf("stationarity residual did not shrink: %g -> %g", early, late)
	}
	if late > 0.2 {
		t.Fatalf("residual %g after 8050 iterations; not near-stationary", late)
	}
}

func TestStationarityZeroGapAtFixedPoint(t *testing.T) {
	// A trivially optimal configuration: single path with enormous
	// capacity, fully converged — the used-link gap near zero.
	x := singlePath(t, 1e6, 1e6, 5)
	eng := New(x, Config{Eta: 1})
	if err := run(eng, 4000); err != nil {
		t.Fatal(err)
	}
	if gap := CheckStationarity(flow.Evaluate(eng.Routing())); gap > 1e-3 {
		t.Fatalf("used-link gap %g at the fixed point", gap)
	}
}

// TestEngineStationarityMatchesCheck: the engine's in-place convergence
// test reports exactly what CheckStationarity reports on a fresh
// evaluation, and interleaving it with Steps — each check leaves its
// forecast behind for the next Step to reuse — does not move the
// trajectory.
func TestEngineStationarityMatchesCheck(t *testing.T) {
	x := randomExtended(t, 31)
	checked, plain := New(x, Config{}), New(x, Config{})
	for i := 0; i < 120; i++ {
		checked.Step()
		plain.Step()
		if i%7 != 0 {
			continue
		}
		got := checked.Stationarity()
		if want := CheckStationarity(flow.Evaluate(plain.Routing())); !sameFloat(got, want) {
			t.Fatalf("iteration %d: engine reports %v, CheckStationarity %v", i, got, want)
		}
		if again := checked.Stationarity(); !sameFloat(again, got) {
			t.Fatalf("iteration %d: repeated check moved: %v then %v", i, got, again)
		}
	}
	for j := range x.Sub {
		if k := sameBits(t, checked.R.Phi[j], plain.R.Phi[j]); k >= 0 {
			t.Fatalf("commodity %d: φ[%d] = %v with interleaved checks, %v without",
				j, k, checked.R.Phi[j][k], plain.R.Phi[j][k])
		}
	}
}
