package gradient

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/randnet"
)

// TestStepSteadyStateAllocs pins the workspace contract of the iterate
// layer: neither Step nor the periodic convergence test on the engine's
// workspaces allocates, not once in a measured loop.
func TestStepSteadyStateAllocs(t *testing.T) {
	x := buildInstance(t, randnet.Config{Seed: 2, Nodes: 40, Commodities: 3})
	e := New(x, Config{})
	for i := 0; i < 10; i++ {
		e.Step() // warm up past any lazy growth
	}
	if n := mallocs(100, func() { e.Step() }); n != 0 {
		t.Fatalf("Step allocates %d objects in 100 steady-state runs, want 0", n)
	}
	if n := mallocs(100, func() { e.Step(); e.Stationarity() }); n != 0 {
		t.Fatalf("Step + Stationarity allocate %d objects in 100 runs, want 0", n)
	}
	// Backtracking swaps between two usage workspaces; it allocates
	// neither on a kept step nor on a rejected one (η 50 forces both).
	b := New(x, Config{Eta: 50, Backtrack: true})
	for i := 0; i < 10; i++ {
		b.Step()
	}
	if n := mallocs(100, func() { b.Step() }); n != 0 {
		t.Fatalf("backtracking Step allocates %d objects in 100 runs, want 0", n)
	}
	if b.Backtracks() == 0 || b.Backtracks() == b.Stats().Iterations {
		t.Fatalf("%d of %d steps rejected; want both branches measured", b.Backtracks(), b.Stats().Iterations)
	}
	// The server's serving step: backtracking without the tags and with
	// the heavy-ball term, priced against the external usage of the
	// other shards, carrying each accepted routing's evaluation into the
	// next step. It is measured from a cold start and again once the
	// screen skips rows: the wave then reuses their terms (arena.reuse)
	// in place of a sweep, and the stationarity check passes them by.
	// The count of screened row-steps shows the measured steps did.
	sx := build(t, sparseProblem(t, 200), nil)
	ext := make([]float64, sx.SharedNodes)
	for n, c := range sx.Capacity[:sx.SharedNodes] {
		if !math.IsInf(c, 1) {
			ext[n] = c / 4
		}
	}
	s := New(sx, Config{Eta: 0.04, Backtrack: true, DisableBlocking: true, Momentum: 0.9})
	s.SetExternal(ext)
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if n := mallocs(100, func() { s.Step() }); n != 0 {
		t.Fatalf("serving Step allocates %d objects in 100 runs, want 0", n)
	}
	for i := 0; s.Screened() == 0; i++ {
		if i == 2000 {
			t.Fatal("the screen skipped no row in 2000 serving steps")
		}
		s.Step()
	}
	screened := 0
	if n := mallocs(100, func() { screened += s.Screened(); s.Step() }); n != 0 {
		t.Fatalf("screened serving Step allocates %d objects in 100 runs, want 0", n)
	}
	if n := mallocs(100, func() { screened += s.Screened(); s.Step(); s.Stationarity() }); n != 0 {
		t.Fatalf("screened serving Step + Stationarity allocate %d objects in 100 runs, want 0", n)
	}
	if screened == 0 {
		t.Fatal("no measured step skipped a row; want the screened path measured")
	}
}

// mallocs counts the heap allocations of runs calls of f after one
// warm-up call, at GOMAXPROCS 1 as testing.AllocsPerRun measures, in
// total: AllocsPerRun's integer mean reads a few allocations spread
// over many runs as 0. A full GC after the warm-up call keeps a cycle
// the warm-up started from allocating inside the measured window.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
