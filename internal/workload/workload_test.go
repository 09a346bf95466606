package workload

import (
	"math"
	"testing"
)

func TestConstant(t *testing.T) {
	p := Constant{R: 7}
	for _, e := range []int{0, 1, 100} {
		if p.Rate(e) != 7 {
			t.Fatalf("Rate(%d) = %g, want 7", e, p.Rate(e))
		}
	}
}

func TestStepsCycle(t *testing.T) {
	p := Steps{Levels: []float64{1, 2, 3}, Period: 2}
	want := []float64{1, 1, 2, 2, 3, 3, 1, 1}
	for e, w := range want {
		if got := p.Rate(e); got != w {
			t.Fatalf("Rate(%d) = %g, want %g", e, got, w)
		}
	}
}

func TestStepsEmptyAndZeroPeriod(t *testing.T) {
	if (Steps{}).Rate(3) != 0 {
		t.Fatal("empty Steps should yield 0")
	}
	p := Steps{Levels: []float64{5, 6}}
	if p.Rate(0) != 5 || p.Rate(1) != 6 {
		t.Fatal("zero period should default to 1")
	}
}

func TestOnOff(t *testing.T) {
	p := OnOff{High: 10, Low: 1, OnLen: 3, OffLen: 2}
	want := []float64{10, 10, 10, 1, 1, 10, 10, 10, 1, 1}
	for e, w := range want {
		if got := p.Rate(e); got != w {
			t.Fatalf("Rate(%d) = %g, want %g", e, got, w)
		}
	}
}

func TestMMPPDeterministicAndValid(t *testing.T) {
	rates := []float64{5, 20, 60}
	a := NewMMPP(rates, 10, 42)
	b := NewMMPP(rates, 10, 42)
	inSet := func(v float64) bool {
		for _, r := range rates {
			if r == v {
				return true
			}
		}
		return false
	}
	changes := 0
	prev := -1.0
	for e := 0; e < 2000; e++ {
		va, vb := a.Rate(e), b.Rate(e)
		if va != vb {
			t.Fatalf("epoch %d: same seed diverged (%g vs %g)", e, va, vb)
		}
		if !inSet(va) {
			t.Fatalf("epoch %d: rate %g not in state set", e, va)
		}
		if prev >= 0 && va != prev {
			changes++
		}
		prev = va
	}
	// Mean dwell 10 over 2000 epochs: expect ~200 transitions; accept a
	// wide band.
	if changes < 100 || changes > 320 {
		t.Fatalf("state changes = %d, want ≈ 200", changes)
	}
}

func TestMMPPSkippingEpochsMatchesSequential(t *testing.T) {
	a := NewMMPP([]float64{1, 2}, 5, 7)
	b := NewMMPP([]float64{1, 2}, 5, 7)
	for e := 0; e < 100; e++ {
		a.Rate(e)
	}
	want := a.Rate(100)
	if got := b.Rate(100); got != want {
		t.Fatalf("skip-ahead Rate(100) = %g, sequential %g", got, want)
	}
}

func TestSineBoundsAndPeriod(t *testing.T) {
	p := Sine{Base: 10, Amp: 4, Period: 40}
	for e := 0; e < 200; e++ {
		v := p.Rate(e)
		if v < 6-1e-9 || v > 14+1e-9 {
			t.Fatalf("Rate(%d) = %g outside [6,14]", e, v)
		}
	}
	if math.Abs(p.Rate(0)-p.Rate(40)) > 1e-9 {
		t.Fatal("period mismatch")
	}
}

func TestSineClampsNegative(t *testing.T) {
	p := Sine{Base: 1, Amp: 5, Period: 4}
	for e := 0; e < 8; e++ {
		if p.Rate(e) < 0 {
			t.Fatalf("negative rate at %d", e)
		}
	}
}

// Regression: Steps.Rate on a negative epoch used to index Levels with
// a negative value ((epoch/p)%len keeps the dividend's sign) — a panic
// for most epochs and the wrong phase for multiples of p·len.
func TestStepsNegativeEpochClamps(t *testing.T) {
	p := Steps{Levels: []float64{1, 2, 3}, Period: 2}
	for _, e := range []int{-1, -2, -5, -6, -100} {
		if got := p.Rate(e); got != 1 {
			t.Fatalf("Rate(%d) = %g, want first level 1", e, got)
		}
	}
}

// Regression: OnOff.Rate on a negative epoch computed a negative
// remainder and could report the on-rate deep inside what should be a
// well-defined cycle; negative epochs now clamp to the first on-phase.
func TestOnOffNegativeEpochClamps(t *testing.T) {
	p := OnOff{High: 10, Low: 1, OnLen: 2, OffLen: 3}
	for _, e := range []int{-1, -3, -4, -50} {
		if got := p.Rate(e); got != 10 {
			t.Fatalf("Rate(%d) = %g, want on-rate 10 (clamped to epoch 0)", e, got)
		}
	}
}

func TestSpikeShape(t *testing.T) {
	p := Spike{Base: 5, Peak: 25, Start: 3, Ramp: 3, Hold: 2, Decay: 4}
	want := []float64{
		5, 5, 5, // before the spike
		10, 15, 20, // ramp: base + 20·(1/4, 2/4, 3/4)
		25, 25, // hold
		21, 17, 13, 9, // decay: peak − 20·(1/5, 2/5, 3/5, 4/5)
		5, 5, // back to base
	}
	for e, w := range want {
		if got := p.Rate(e); math.Abs(got-w) > 1e-12 {
			t.Fatalf("Rate(%d) = %g, want %g", e, got, w)
		}
	}
	if p.Rate(-4) != 5 {
		t.Fatal("negative epoch should sit at base")
	}
}

func TestSpikeInstantEdges(t *testing.T) {
	p := Spike{Base: 1, Peak: 9, Start: 2, Hold: 3}
	want := []float64{1, 1, 9, 9, 9, 1, 1}
	for e, w := range want {
		if got := p.Rate(e); got != w {
			t.Fatalf("Rate(%d) = %g, want %g", e, got, w)
		}
	}
	// An all-zero-duration spike still fires for exactly one epoch.
	one := Spike{Base: 1, Peak: 9, Start: 5}
	if one.Rate(4) != 1 || one.Rate(5) != 9 || one.Rate(6) != 1 {
		t.Fatalf("zero-duration spike = %g,%g,%g, want 1,9,1",
			one.Rate(4), one.Rate(5), one.Rate(6))
	}
}

func TestLognormalDeterministicAndPositive(t *testing.T) {
	a := NewLognormal(10, 0.8, 42)
	b := NewLognormal(10, 0.8, 42)
	above := 0
	for e := 0; e < 2000; e++ {
		va, vb := a.Rate(e), b.Rate(e)
		if va != vb {
			t.Fatalf("epoch %d: same seed diverged (%g vs %g)", e, va, vb)
		}
		if va <= 0 || math.IsNaN(va) || math.IsInf(va, 0) {
			t.Fatalf("epoch %d: invalid rate %g", e, va)
		}
		if va > 10 {
			above++
		}
	}
	// Median 10: roughly half the draws land above it.
	if above < 800 || above > 1200 {
		t.Fatalf("draws above median = %d/2000, want ≈ 1000", above)
	}
}

func TestLognormalSkippingEpochsMatchesSequential(t *testing.T) {
	a := NewLognormal(5, 0.5, 7)
	b := NewLognormal(5, 0.5, 7)
	for e := 0; e < 100; e++ {
		a.Rate(e)
	}
	if got, want := b.Rate(100), a.Rate(100); got != want {
		t.Fatalf("skip-ahead Rate(100) = %g, sequential %g", got, want)
	}
	if NewLognormal(5, 0.5, 7).Rate(-3) != 5 {
		t.Fatal("negative epoch should return the median")
	}
}

func TestLognormalZeroSigmaIsConstant(t *testing.T) {
	p := NewLognormal(4, -1, 3) // negative sigma clamps to 0
	for e := 0; e < 20; e++ {
		if got := p.Rate(e); got != 4 {
			t.Fatalf("Rate(%d) = %g, want 4", e, got)
		}
	}
}

// TestGoldenTrajectories pins the first rates of every Process
// implementation: the same configuration (and seed, for the random
// ones) must reproduce these exact trajectories forever — the scenario
// compiler's byte-identical event streams depend on it. Seeded values
// come from math/rand's fixed generator, stable for a fixed seed.
func TestGoldenTrajectories(t *testing.T) {
	const n = 8
	cases := []struct {
		proc Process
		want [n]float64
	}{
		{Constant{R: 3}, [n]float64{3, 3, 3, 3, 3, 3, 3, 3}},
		{Steps{Levels: []float64{1, 4}, Period: 3}, [n]float64{1, 1, 1, 4, 4, 4, 1, 1}},
		{OnOff{High: 9, Low: 2, OnLen: 2, OffLen: 2}, [n]float64{9, 9, 2, 2, 9, 9, 2, 2}},
		{Sine{Base: 10, Amp: 10, Period: 4}, [n]float64{10, 20, 10, 0, 10, 20, 10, 0}},
		{Spike{Base: 1, Peak: 5, Start: 2, Ramp: 1, Hold: 2, Decay: 1}, [n]float64{1, 1, 3, 5, 5, 3, 1, 1}},
	}
	for _, c := range cases {
		for e := 0; e < n; e++ {
			if got := c.proc.Rate(e); math.Abs(got-c.want[e]) > 1e-9 {
				t.Errorf("%T: Rate(%d) = %g, want %g", c.proc, e, got, c.want[e])
			}
		}
	}
	// Seeded processes: a trajectory must be bit-identical across two
	// instances (the compiler relies on this) and stable under replay.
	for _, mk := range []func() Process{
		func() Process { return NewMMPP([]float64{2, 8, 32}, 4, 99) },
		func() Process { return NewLognormal(10, 1.2, 99) },
	} {
		a, b := mk(), mk()
		var traj [64]float64
		for e := range traj {
			traj[e] = a.Rate(e)
			if vb := b.Rate(e); vb != traj[e] {
				t.Fatalf("%T: epoch %d diverged across instances (%g vs %g)",
					a, e, traj[e], vb)
			}
		}
		c := mk()
		for e := range traj {
			if vc := c.Rate(e); vc != traj[e] {
				t.Fatalf("%T: replay diverged at epoch %d", a, e)
			}
		}
	}
}

func TestMMPPSingleStateNeverChanges(t *testing.T) {
	p := NewMMPP([]float64{7}, 2, 3)
	for e := 0; e < 100; e++ {
		if p.Rate(e) != 7 {
			t.Fatalf("single-state MMPP changed at epoch %d", e)
		}
	}
}

func TestMMPPEmpty(t *testing.T) {
	p := NewMMPP(nil, 2, 3)
	if p.Rate(5) != 0 {
		t.Fatal("empty MMPP should yield 0")
	}
}

func TestMMPPMinimumDwell(t *testing.T) {
	// meanDwell < 1 clamps to 1 (change candidate every epoch) without
	// panicking.
	p := NewMMPP([]float64{1, 2}, 0.1, 9)
	for e := 0; e < 50; e++ {
		v := p.Rate(e)
		if v != 1 && v != 2 {
			t.Fatalf("rate %g outside state set", v)
		}
	}
}
