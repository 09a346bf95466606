package server

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/randnet"
	"repro/internal/shard"
	"repro/internal/stream"
)

// shardedOptions are tight solver settings on instances measured to
// reach stationarity well inside the budget, so utility parity between
// shard counts is a property of the decomposition, not of where two
// unconverged trajectories happened to stop.
func shardedOptions(shards int) Options {
	return Options{
		MaxIters:      12000,
		StationaryTol: 1e-4,
		Shards:        shards,
		PlacementSalt: 7,
		Debounce:      2 * time.Millisecond,
		Logf:          func(string, ...any) {},
	}
}

// churnProblem is a random instance whose gradient trajectory settles
// quickly at the default step size (measured: ~9.3k iterations to the
// 1e-4 stationarity gap).
func churnProblem(t *testing.T) *stream.Problem {
	t.Helper()
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 24, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardedServerMatchesSingle boots the same problem into a
// 4-shard and a one-shard server and compares the first published
// snapshot: the shards taking turns must land within 0.1% of the
// undecomposed utility.
func TestShardedServerMatchesSingle(t *testing.T) {
	p := churnProblem(t)
	var got [2]*Snapshot
	for i, shards := range []int{1, 4} {
		s, err := New(p, shardedOptions(shards))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := s.WaitForGeneration(1, waitBudget)
		if cerr := s.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Converged {
			t.Fatalf("shards=%d: first solve did not converge (%d iterations)", shards, snap.Iterations)
		}
		got[i] = snap
	}
	rel := math.Abs(got[1].Utility-got[0].Utility) / math.Abs(got[0].Utility)
	if rel > 1e-3 {
		t.Fatalf("sharded utility %.9f vs one-shard %.9f (rel %.2e > 0.1%%)",
			got[1].Utility, got[0].Utility, rel)
	}
	if len(got[1].Commodities) != len(got[0].Commodities) {
		t.Fatalf("commodity counts differ: %d vs %d", len(got[1].Commodities), len(got[0].Commodities))
	}
	for i, c := range got[1].Commodities {
		if c.Name != got[0].Commodities[i].Name {
			t.Fatalf("commodity order differs at %d: %q vs %q", i, c.Name, got[0].Commodities[i].Name)
		}
	}
}

// TestShardedFlashCrowdChurn drives a 4-shard server through a flash
// crowd: half the commodities depart, then re-arrive, with a rate spike
// in between. Ownership follows the consistent hash, so each departure
// and arrival lands on its owner shard (changing only that shard) while
// the others keep their engines; the final state — identical to the
// initial problem — must re-converge to the pre-churn utility.
func TestShardedFlashCrowdChurn(t *testing.T) {
	p := churnProblem(t)
	const shards = 4

	// The churn must actually move load between shards: the four
	// commodities must not all hash to one shard.
	owners := map[int]bool{}
	for _, c := range p.Commodities {
		owners[shard.Place(c.Name, 7, shards)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("all commodities hash to one shard; churn would not exercise the exchange")
	}

	// Marshal the departing commodities' specs up front so they can
	// re-arrive byte-identically.
	leave := []string{p.Commodities[0].Name, p.Commodities[2].Name}
	specs := map[string][]byte{}
	for _, name := range leave {
		spec, err := p.MarshalCommodityJSON(name)
		if err != nil {
			t.Fatal(err)
		}
		specs[name] = spec
	}
	stay := p.Commodities[1].Name

	s, err := New(p, shardedOptions(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	baseline := snap.Utility

	next := func() {
		t.Helper()
		gen := s.Snapshot().Generation
		if _, err := s.WaitForGeneration(gen+1, waitBudget); err != nil {
			t.Fatal(err)
		}
	}

	// Flash crowd departs.
	for _, name := range leave {
		if _, err := s.RemoveCommodity(name); err != nil {
			t.Fatal(err)
		}
	}
	next()
	if n := len(s.Snapshot().Commodities); n != 2 {
		t.Fatalf("after departures: %d commodities, want 2", n)
	}

	// A survivor spikes while the crowd is away.
	var stayRate float64
	for _, c := range p.Commodities {
		if c.Name == stay {
			stayRate = c.MaxRate
		}
	}
	if _, err := s.SetMaxRate(stay, stayRate*2); err != nil {
		t.Fatal(err)
	}
	next()

	// The crowd returns and the spike subsides: the desired state is
	// exactly the initial problem again.
	for _, name := range leave {
		if _, err := s.AddCommodityJSON(specs[name]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SetMaxRate(stay, stayRate); err != nil {
		t.Fatal(err)
	}
	next()

	final := s.Snapshot()
	if n := len(final.Commodities); n != len(p.Commodities) {
		t.Fatalf("after churn: %d commodities, want %d", n, len(p.Commodities))
	}
	if !final.Converged {
		t.Fatalf("final solve did not converge (%d iterations)", final.Iterations)
	}
	rel := math.Abs(final.Utility-baseline) / math.Abs(baseline)
	if rel > 1e-3 {
		t.Fatalf("post-churn utility %.9f vs pre-churn %.9f (rel %.2e > 0.1%%)",
			final.Utility, baseline, rel)
	}
}

// TestShardedZeroCommodities: a sharded server whose last commodity
// departs publishes an empty feasible snapshot and recovers when one
// arrives again.
func TestShardedZeroCommodities(t *testing.T) {
	p := churnProblem(t)
	spec, err := p.MarshalCommodityJSON(p.Commodities[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, shardedOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Commodities {
		if _, err := s.RemoveCommodity(c.Name); err != nil {
			t.Fatal(err)
		}
	}
	gen := s.Snapshot().Generation
	snap, err := s.WaitForGeneration(gen+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Commodities) != 0 || !snap.Feasible || snap.Utility != 0 {
		t.Fatalf("empty snapshot = %d commodities, feasible=%v, utility=%v", len(snap.Commodities), snap.Feasible, snap.Utility)
	}
	if _, err := s.AddCommodityJSON(spec); err != nil {
		t.Fatal(err)
	}
	gen = snap.Generation
	snap, err = s.WaitForGeneration(gen+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Commodities) != 1 || snap.Utility <= 0 {
		t.Fatalf("recovered snapshot = %d commodities, utility=%v", len(snap.Commodities), snap.Utility)
	}
}

// TestMislabeledArrivalPublishes: an add_commodity mutation's Target is
// a label, and nothing ties it to the name in its payload. An arrival
// labeled with a name another shard owns must still land on the
// payload's owner shard and publish, with the commodity at its offered
// rate, not take the solver down.
func TestMislabeledArrivalPublishes(t *testing.T) {
	p := churnProblem(t)
	const shards = 4
	name := p.Commodities[0].Name
	spec, err := p.MarshalCommodityJSON(name)
	if err != nil {
		t.Fatal(err)
	}
	label := ""
	for i := 0; label == ""; i++ {
		if l := fmt.Sprintf("label%d", i); shard.Place(l, 7, shards) != shard.Place(name, 7, shards) {
			label = l
		}
	}

	s, err := New(p, shardedOptions(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// published waits for the first snapshot that incorporates rev.
	published := func(rev int64) *Snapshot {
		t.Helper()
		for gen := int64(1); ; gen++ {
			snap, err := s.WaitForGeneration(gen, waitBudget)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Rev >= rev {
				return snap
			}
			gen = snap.Generation
		}
	}
	rev, err := s.RemoveCommodity(name)
	if err != nil {
		t.Fatal(err)
	}
	published(rev)

	m := journal.AddCommodity(spec)
	m.Target = label
	if rev, err = s.Apply(m); err != nil {
		t.Fatal(err)
	}
	snap := published(rev)
	for _, c := range snap.Commodities {
		if c.Name == name {
			if c.Offered != p.Commodities[0].MaxRate {
				t.Fatalf("%s offered %v, want %v", name, c.Offered, p.Commodities[0].MaxRate)
			}
			return
		}
	}
	t.Fatalf("the snapshot after the arrival does not list %s", name)
}
