package flow

import (
	"runtime"
	"testing"

	"repro/internal/randnet"
	"repro/internal/transform"
)

func buildRandnet(t *testing.T, seed int64) *transform.Extended {
	t.Helper()
	p, err := randnet.Generate(randnet.Config{Seed: seed, Nodes: 20, Commodities: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// admitSome returns a copy of the initial routing with part of each
// commodity's offered rate pushed into the real network, so the
// evaluation exercises nonzero flow on interior edges.
func admitSome(x *transform.Extended, frac float64) *Routing {
	r := NewInitial(x)
	for j := range x.Commodities {
		c := &x.Commodities[j]
		r.SetAt(j, c.InputLink, frac)
		r.SetAt(j, c.DiffLink, 1-frac)
	}
	return r
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func assertUsageBitwiseEqual(t *testing.T, got, want *Usage) {
	t.Helper()
	if !sameBits(got.FNode, want.FNode) {
		t.Fatalf("FNode differs: %v vs %v", got.FNode, want.FNode)
	}
	for j := range want.T {
		if !sameBits(got.T[j], want.T[j]) {
			t.Fatalf("T[%d] differs", j)
		}
		for le, e := range want.R.X.Sub[j].Edges {
			if got.EdgeFlow(j, int32(le)) != want.EdgeFlow(j, int32(le)) {
				t.Fatalf("EdgeFlow(%d, %d) differs", j, le)
			}
			if got.ArriveAt(j, e) != want.ArriveAt(j, e) {
				t.Fatalf("ArriveAt(%d, %d) differs", j, e)
			}
		}
	}
}

func TestEvaluateIntoMatchesEvaluateBitwise(t *testing.T) {
	x := buildRandnet(t, 11)
	ws := NewUsage(x)
	// Reuse the same workspace across several routings: each refill must
	// match a fresh Evaluate bit for bit even though the backing arrays
	// start dirty from the previous routing.
	for _, frac := range []float64{0, 0.25, 0.8, 1} {
		r := admitSome(x, frac)
		EvaluateInto(ws, r)
		assertUsageBitwiseEqual(t, ws, Evaluate(r))
		if ws.R != r {
			t.Fatalf("workspace routing not rebound")
		}
	}
}

func TestEvaluateIntoDoesNotAllocate(t *testing.T) {
	x := buildRandnet(t, 11)
	r := admitSome(x, 0.5)
	ws := NewUsage(x)
	if n := mallocs(100, func() { EvaluateInto(ws, r) }); n != 0 {
		t.Fatalf("EvaluateInto allocates %d objects in 100 runs, want 0", n)
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

func TestEvaluateIntoRejectsWrongShape(t *testing.T) {
	x := buildRandnet(t, 11)
	p, err := randnet.Generate(randnet.Config{Seed: 12, Nodes: 26, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	other, err := transform.Build(p, transform.Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EvaluateInto accepted a workspace of the wrong shape")
		}
	}()
	EvaluateInto(NewUsage(x), NewInitial(other))
}

func TestNewInitialDoesNotAllocatePerNode(t *testing.T) {
	x := buildRandnet(t, 11)
	// One Routing (header + rows + flat backing) is 3 allocations; the
	// member-adjacency rewrite removed the per-node scratch slice, so the
	// count must stay flat no matter the node count.
	if allocs := testing.AllocsPerRun(50, func() { NewInitial(x) }); allocs > 4 {
		t.Fatalf("NewInitial allocates %v objects per run, want <= 4", allocs)
	}
}
