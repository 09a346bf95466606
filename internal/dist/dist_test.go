package dist

import (
	"math"
	"repro/internal/simnet"
	"testing"

	"repro/internal/gradient"
	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/transform"
)

func buildRandom(t *testing.T, seed int64, layers, nodes, commodities int) *transform.Extended {
	t.Helper()
	p, err := randnet.Generate(randnet.Config{
		Seed: seed, Layers: layers, Nodes: nodes, Commodities: commodities,
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

func TestMatchesSynchronousEngineTrajectory(t *testing.T) {
	// The actor protocol must produce the exact trajectory of the
	// synchronous engine: same utility, cost and admitted rates at
	// every iteration (up to float summation-order noise).
	x := buildRandom(t, 5, 4, 20, 2)
	cfg := gradient.Config{Eta: 0.1}
	eng := gradient.New(x, cfg)
	rt := New(x, cfg)
	for i := 0; i < 60; i++ {
		want := eng.Step()
		got, err := rt.Step()
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if math.Abs(got.Utility-want.Utility) > 1e-6*(1+math.Abs(want.Utility)) {
			t.Fatalf("iteration %d: utility %g vs engine %g", i, got.Utility, want.Utility)
		}
		if math.Abs(got.Cost-want.Cost) > 1e-6*(1+math.Abs(want.Cost)) {
			t.Fatalf("iteration %d: cost %g vs engine %g", i, got.Cost, want.Cost)
		}
		for j := range want.Admitted {
			if math.Abs(got.Admitted[j]-want.Admitted[j]) > 1e-6*(1+want.Admitted[j]) {
				t.Fatalf("iteration %d commodity %d: admitted %g vs %g",
					i, j, got.Admitted[j], want.Admitted[j])
			}
		}
	}
	// Final routing variables must agree too.
	re := eng.Routing()
	rd := rt.Routing()
	for j := range re.Phi {
		for e := range re.Phi[j] {
			if math.Abs(re.Phi[j][e]-rd.Phi[j][e]) > 1e-6 {
				t.Fatalf("phi[%d][%d] = %g vs engine %g", j, e, rd.Phi[j][e], re.Phi[j][e])
			}
		}
	}
}

func TestMessageCountMatchesEngineAccounting(t *testing.T) {
	x := buildRandom(t, 9, 4, 16, 2)
	cfg := gradient.Config{Eta: 0.1}
	eng := gradient.New(x, cfg)
	rt := New(x, cfg)
	eng.Step()
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	if got, want := rt.LastMessages, eng.Stats().Messages; got != want {
		t.Fatalf("measured messages %d, engine accounting %d", got, want)
	}
}

func TestRoundsScaleWithDepth(t *testing.T) {
	// §6: an iteration of the gradient algorithm needs O(L) sequential
	// message exchanges. Deep graphs must need more rounds per
	// iteration than shallow ones.
	shallow := buildRandom(t, 3, 3, 18, 2)
	deep := buildRandom(t, 3, 9, 18, 2)
	rs := New(shallow, gradient.Config{})
	rd := New(deep, gradient.Config{})
	if _, err := rs.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Step(); err != nil {
		t.Fatal(err)
	}
	if rd.LastRounds <= rs.LastRounds {
		t.Fatalf("deep rounds %d not > shallow rounds %d", rd.LastRounds, rs.LastRounds)
	}
}

func TestRoundsMatchMemberDepth(t *testing.T) {
	// Rounds per iteration = 2 × (longest member path): one downstream
	// wave plus one upstream wave.
	x := buildRandom(t, 7, 5, 20, 2)
	depth := 0
	for j := range x.Commodities {
		l, err := x.G.LongestPathLen(func(e graph.EdgeID) bool { return x.Sub[j].LocalEdge(e) >= 0 })
		if err != nil {
			t.Fatal(err)
		}
		if l > depth {
			depth = l
		}
	}
	rt := New(x, gradient.Config{})
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	if rt.LastRounds != 2*depth {
		t.Fatalf("rounds = %d, want 2·depth = %d", rt.LastRounds, 2*depth)
	}
}

func TestConvergesLikeEngine(t *testing.T) {
	// Long-horizon check: after 1500 iterations the actor protocol
	// lands where the synchronous engine lands (η = 0.2 oscillates
	// transiently on this instance, so compare endpoints rather than
	// demanding monotonicity).
	x := buildRandom(t, 11, 4, 16, 2)
	rt := New(x, gradient.Config{Eta: 0.2})
	eng := gradient.New(x, gradient.Config{Eta: 0.2})
	var last, engLast gradient.StepInfo
	for i := 0; i < 1500; i++ {
		info, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		last = info
		engLast = eng.Step()
	}
	if last.Utility <= 0 {
		t.Fatal("no utility after 1500 iterations")
	}
	if math.Abs(last.Utility-engLast.Utility) > 1e-3*(1+engLast.Utility) {
		t.Fatalf("final utility %g, engine %g", last.Utility, engLast.Utility)
	}
}

// deterministicJitter assigns every message a pseudo-random delay in
// [1, spread] from a hash of its endpoints and payload kind — stable
// across runs, different across edges.
func deterministicJitter(spread int) func(simnet.Message) int {
	return func(m simnet.Message) int {
		h := uint32(m.From)*2654435761 + uint32(m.To)*40503
		switch m.Payload.(type) {
		case flowMsg:
			h += 17
		case rhoMsg:
			h += 31
		}
		return 1 + int(h>>16)%spread
	}
}

func TestDelayInvariance(t *testing.T) {
	// Arbitrary per-message latencies must not change a single routing
	// decision: every node's wave computation waits for ALL of its
	// inputs, so the protocol result is a function of topology and
	// state only. Measured rounds, of course, grow.
	x := buildRandom(t, 21, 4, 18, 2)
	cfg := gradient.Config{Eta: 0.1}
	sync := New(x, cfg)
	jit := NewWithLatency(x, cfg, deterministicJitter(7), 7)
	var jitRounds, syncRounds int
	for i := 0; i < 40; i++ {
		a, err := sync.Step()
		if err != nil {
			t.Fatal(err)
		}
		b, err := jit.Step()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Utility-b.Utility) > 1e-9*(1+math.Abs(a.Utility)) {
			t.Fatalf("iteration %d: utility diverged under jitter: %g vs %g", i, b.Utility, a.Utility)
		}
		if math.Abs(a.Cost-b.Cost) > 1e-9*(1+math.Abs(a.Cost)) {
			t.Fatalf("iteration %d: cost diverged under jitter", i)
		}
		syncRounds, jitRounds = sync.LastRounds, jit.LastRounds
	}
	// Same messages...
	if sync.LastMessages != jit.LastMessages {
		t.Fatalf("message counts differ: %d vs %d", sync.LastMessages, jit.LastMessages)
	}
	// ...but slower waves.
	if jitRounds <= syncRounds {
		t.Fatalf("jittered rounds %d not above synchronous %d", jitRounds, syncRounds)
	}
	// Final routing must match (up to float summation-order noise:
	// jitter reorders message arrival, which reorders additions).
	rs, rj := sync.Routing(), jit.Routing()
	for j := range rs.Phi {
		for e := range rs.Phi[j] {
			if math.Abs(rs.Phi[j][e]-rj.Phi[j][e]) > 1e-9 {
				t.Fatalf("phi[%d][%d] differs under jitter", j, e)
			}
		}
	}
}
