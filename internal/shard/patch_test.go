package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/gradient"
	"repro/internal/journal"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
)

// twin drives one decision after another through a coordinator that
// reparameterizes shards in place and one forced to rebuild every shard
// whose problem changed, and fails on the first difference between what
// the two report.
type twin struct {
	t                *testing.T
	shards           int
	salt             uint64
	patched, rebuilt *Coordinator
	p                *stream.Problem
	warm             bool // what the last Apply returned, the same on both
}

func newTwin(t *testing.T, p *stream.Problem, shards int) *twin {
	t.Helper()
	return newTwinWith(t, p, Config{Shards: shards, Salt: 7, Eta: 0.01, MaxIters: 300})
}

func newTwinWith(t *testing.T, p *stream.Problem, cfg Config) *twin {
	t.Helper()
	shards := cfg.Shards
	tw := &twin{t: t, shards: shards, salt: cfg.Salt, patched: New(cfg), rebuilt: New(cfg), p: p}
	tw.rebuilt.RebuildOnly()
	tw.apply("boot")
	return tw
}

// decide applies ms to the next version of the problem, the way the
// server's write path does, and has both coordinators find the shards it
// changed and solve. It returns the patched coordinator's extended
// problems before and after, per shard, for callers that assert which
// path a shard took.
func (tw *twin) decide(label string, ms ...journal.Mutation) (before, after []*transform.Extended) {
	tw.t.Helper()
	next := tw.p.NewVersion()
	for i := range ms {
		if err := journal.Apply(next, &ms[i]); err != nil {
			tw.t.Fatalf("%s: %v", label, err)
		}
	}
	tw.p = next
	for _, r := range tw.patched.runners {
		before = append(before, r.x)
	}
	tw.apply(label)
	for _, r := range tw.patched.runners {
		after = append(after, r.x)
	}
	return before, after
}

func (tw *twin) apply(label string) {
	tw.t.Helper()
	pw, perr := tw.patched.Apply(tw.p, nil)
	rw, rerr := tw.rebuilt.Apply(tw.p, nil)
	if perr != nil || rerr != nil {
		tw.t.Fatalf("%s: apply: patched %v, rebuilt %v", label, perr, rerr)
	}
	if pw != rw {
		tw.t.Fatalf("%s: warm %v patched, %v rebuilt", label, pw, rw)
	}
	tw.warm = pw
	pr, rr := tw.patched.Solve(context.Background()), tw.rebuilt.Solve(context.Background())
	// DeepEqual on floats is equality of values, which for the finite
	// numbers here is equality of bits.
	if !reflect.DeepEqual(pr, rr) {
		tw.t.Fatalf("%s: result\npatched %+v\nrebuilt %+v", label, pr, rr)
	}
	if pc, rc := tw.patched.Commodities(), tw.rebuilt.Commodities(); !reflect.DeepEqual(pc, rc) {
		tw.t.Fatalf("%s: admitted vectors\npatched %+v\nrebuilt %+v", label, pc, rc)
	}
	if !reflect.DeepEqual(tw.patched.UsageReport(), tw.rebuilt.UsageReport()) {
		tw.t.Fatalf("%s: usage reports differ", label)
	}
	if !reflect.DeepEqual(tw.patched.Explain(), tw.rebuilt.Explain()) {
		tw.t.Fatalf("%s: explanations differ", label)
	}
	for i, r := range tw.patched.runners {
		if pe, re := r.eta(), tw.rebuilt.runners[i].eta(); pe != re {
			tw.t.Fatalf("%s: shard %d at η %v patched, %v rebuilt", label, i, pe, re)
		}
	}
}

// eta is the step scale the shard's engine has reached, 0 without one.
func (r *runner) eta() float64 {
	if r.eng == nil {
		return 0
	}
	return r.eng.Eta()
}

// kept reports, per shard, whether the patched coordinator still runs
// on the extended problem it had.
func kept(before, after []*transform.Extended) []bool {
	out := make([]bool, len(before))
	for i := range before {
		out[i] = before[i] == after[i]
	}
	return out
}

// TestPatchedEqualsRebuilt: one script of everything that moves
// parameters without restructuring a shard — a rate, a batch of rates, a
// utility, a capacity cut and its restore, a bandwidth, a departure and
// identical re-arrival coalesced into one decision, a departure on
// another shard that only shifts this shard's global indices — and of
// the changes that do restructure one, at 1 and 4 shards. The
// coordinator that patches keeps its extended problems through the
// first kind and agrees with the one that rebuilds, bit for bit, on
// every result, admitted rate, iteration count, usage report,
// explanation and warm flag throughout. (Backtrack is not a shard
// setting; gradient's TestRestartMatchesRebuildAndRebind covers the
// engine in that mode.)
func TestPatchedEqualsRebuilt(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
			if err != nil {
				t.Fatal(err)
			}
			tw := newTwin(t, p, shards)
			name := func(i int) string { return tw.p.Commodities[i].Name }
			rate := func(i int, f float64) float64 { return f * tw.p.Commodities[i].MaxRate }
			spec := func(n string) []byte {
				b, err := tw.p.MarshalCommodityJSON(n)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			var node string
			for i, kind := range p.Net.Kinds {
				if kind == stream.Processing {
					node = p.Net.Names[i]
					break
				}
			}
			link := p.Net.G.Edge(0)
			from, to := p.Net.Names[link.From], p.Net.Names[link.To]

			parametersOnly := []struct {
				label string
				ms    []journal.Mutation
			}{
				{"rate", []journal.Mutation{journal.SetRate(name(0), rate(0, 0.7))}},
				{"rates batch", []journal.Mutation{journal.SetRates(map[string]float64{
					name(1): rate(1, 1.2), name(2): rate(2, 0.8), name(5): rate(5, 1.1)})}},
				{"utility", []journal.Mutation{journal.SetUtility(name(3), []byte(`{"type":"log","weight":2,"scale":1}`))}},
				{"capacity cut", []journal.Mutation{journal.ScaleCapacity(node, 0.5)}},
				{"capacity restore", []journal.Mutation{journal.ScaleCapacity(node, 2)}},
				{"bandwidth", []journal.Mutation{journal.ScaleBandwidth(from, to, 0.5)}},
				// The last commodity comes back where it was, last of its shard.
				{"depart + identical re-arrival", []journal.Mutation{
					journal.RemoveCommodity(name(7)), journal.AddCommodity(spec(name(7)))}},
			}
			for _, step := range parametersOnly {
				if slices.Contains(kept(tw.decide(step.label, step.ms...)), false) {
					t.Errorf("%s: a shard was rebuilt for a change of parameters", step.label)
				}
			}

			// The first commodity comes back last: its shard's order changes.
			first := name(0)
			owner := Place(first, tw.salt, shards)
			stayed := kept(tw.decide("depart + re-arrival elsewhere in the order",
				journal.RemoveCommodity(first), journal.AddCommodity(spec(first))))
			moved := false
			for _, c := range tw.p.Commodities[:len(tw.p.Commodities)-1] {
				moved = moved || Place(c.Name, tw.salt, shards) == owner
			}
			if moved && stayed[owner] {
				t.Error("a shard whose commodity order changed was not rebuilt")
			}

			// A departure on one shard and a rate on another, later in the
			// order: the second shard's commodities all move up one place.
			gone := name(0)
			other := -1
			for i, c := range tw.p.Commodities {
				if Place(c.Name, tw.salt, shards) != Place(gone, tw.salt, shards) {
					other = i
				}
			}
			if other < 0 {
				other = len(tw.p.Commodities) - 1 // one shard: the departure restructures it
			}
			goneSpec := spec(gone)
			stayed = kept(tw.decide("departure elsewhere + rate",
				journal.RemoveCommodity(gone), journal.SetRate(name(other), rate(other, 0.9))))
			if s := Place(name(other-1), tw.salt, shards); s != Place(gone, tw.salt, shards) && !stayed[s] {
				t.Error("a shard was rebuilt because a departure on another one shifted its global indices")
			}
			tw.decide("arrival", journal.AddCommodity(goneSpec))

			// Back on the same edges at another processing cost: a rebuild
			// whose routing still rebinds.
			last := name(len(tw.p.Commodities) - 1)
			var arrival map[string]any
			if err := json.Unmarshal(spec(last), &arrival); err != nil {
				t.Fatal(err)
			}
			edge := arrival["edges"].([]any)[0].(map[string]any)
			edge["cost"] = 1.5 * edge["cost"].(float64)
			costlier, err := json.Marshal(arrival)
			if err != nil {
				t.Fatal(err)
			}
			stayed = kept(tw.decide("depart + re-arrival at another cost",
				journal.RemoveCommodity(last), journal.AddCommodity(costlier)))
			if stayed[Place(last, tw.salt, shards)] {
				t.Error("a changed edge parameter was taken for a change of rate")
			}
			// Only the owner shard rebound, so its start is the decision's.
			if !tw.warm {
				t.Error("the rebuild on an unchanged edge set did not warm-start")
			}
		})
	}
}

// kinked is concave on [0, 10] and not beyond: its derivative steps up
// at 10.
type kinked struct{}

func (kinked) Value(r float64) float64 { return r + max(0, r-10) }
func (kinked) Deriv(r float64) float64 {
	if r > 10 {
		return 2
	}
	return 1
}
func (kinked) Name() string { return "kinked" }

var _ utility.Function = kinked{}

// TestRateThatInvalidatesUtilityFailsTheBuild: SetMaxRate does not look
// at the utility, so a rate can stretch a commodity's range past where
// its utility is concave. Build's validation catches that; the path
// that skips Build must say the same thing, leave the shard as it was,
// and carry on from the next valid problem exactly like a rebuild.
func TestRateThatInvalidatesUtilityFailsTheBuild(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 24, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	victim := p.Commodities[1].Name
	if err := p.SetMaxRate(victim, 8); err != nil {
		t.Fatal(err)
	}
	p.Commodities[1].Utility = kinked{}
	tw := newTwin(t, p, 1)

	bad := tw.p.NewVersion()
	if err := bad.SetMaxRate(victim, 20); err != nil {
		t.Fatal(err)
	}
	_, perr := tw.patched.Apply(bad, nil)
	_, rerr := tw.rebuilt.Apply(bad, nil)
	if perr == nil || rerr == nil || perr.Error() != rerr.Error() {
		t.Fatalf("patched: %v\nrebuilt: %v", perr, rerr)
	}
	if !strings.Contains(perr.Error(), victim) || !strings.Contains(perr.Error(), "not concave") {
		t.Fatalf("error does not name the commodity and the cause: %v", perr)
	}
	if got := tw.patched.runners[0].x.Commodities[1].MaxRate; got != 8 {
		t.Fatalf("the failed build left offered rate %v in the shard", got)
	}
	tw.decide("recovery", journal.SetRate(victim, 9))
}

// TestOnlyChangedShardsRebind: the coordinator alone finds which shards
// a problem version changed. For each of the nine ops, applied to a new
// version at four shards and handed to Build with no hint, exactly the
// shards that own a commodity the op names are brought up to it — every
// shard for the four network ops — and every other shard keeps its
// engine, with the iterations and the η it had. A version that changes
// nothing rebinds no shard.
func TestOnlyChangedShardsRebind(t *testing.T) {
	const shards, salt = 4, 7
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	if err != nil {
		t.Fatal(err)
	}
	var name []string
	for _, cm := range p.Commodities {
		name = append(name, cm.Name)
	}
	arrival, err := p.MarshalCommodityJSON(name[7])
	if err != nil {
		t.Fatal(err)
	}
	var node string
	for i, kind := range p.Net.Kinds {
		if kind == stream.Processing {
			node = p.Net.Names[i]
			break
		}
	}
	link := p.Net.G.Edge(0)
	from, to := p.Net.Names[link.From], p.Net.Names[link.To]
	rates := map[string]float64{name[1]: 0.8 * p.Commodities[1].MaxRate, name[2]: 1.2 * p.Commodities[2].MaxRate}

	p = p.NewVersion()
	p.RemoveCommodity(name[7])
	c := New(Config{Shards: shards, Salt: salt, MaxIters: 200, Serving: true})
	if _, err := c.Apply(p, nil); err != nil {
		t.Fatal(err)
	}
	c.Solve(context.Background())

	for _, step := range []struct {
		m      journal.Mutation
		owners []string // nil: every shard
	}{
		{journal.AddCommodity(arrival), []string{name[7]}},
		{journal.RemoveCommodity(name[0]), []string{name[0]}},
		{journal.SetRate(name[3], 2), []string{name[3]}},
		{journal.SetRates(rates), []string{name[1], name[2]}},
		{journal.SetUtility(name[4], []byte(`{"type":"log","weight":2,"scale":1}`)), []string{name[4]}},
		{journal.SetCapacity(node, 3), nil},
		{journal.ScaleCapacity(node, 2), nil},
		{journal.SetBandwidth(from, to, 3), nil},
		{journal.ScaleBandwidth(from, to, 0.5), nil},
	} {
		t.Run(step.m.Op, func(t *testing.T) {
			owner := make([]bool, shards)
			for s := range owner {
				owner[s] = step.owners == nil
			}
			for _, n := range step.owners {
				owner[Place(n, salt, shards)] = true
			}
			next := p.NewVersion()
			if err := journal.Apply(next, &step.m); err != nil {
				t.Fatal(err)
			}
			p = next
			type engine struct {
				eng   *gradient.Engine
				stats gradient.Stats
				eta   float64
			}
			before := make([]engine, shards)
			for s, r := range c.runners {
				if r.eng != nil {
					before[s] = engine{r.eng, r.eng.Stats(), r.eng.Eta()}
				}
			}
			if err := c.Build(p, nil); err != nil {
				t.Fatal(err)
			}
			got := make([]bool, shards)
			for _, r := range c.changed {
				got[r.id] = true
			}
			if !slices.Equal(got, owner) {
				t.Fatalf("shards brought up to the version %v, want %v", got, owner)
			}
			c.Bind()
			for s, r := range c.runners {
				if owner[s] {
					continue
				}
				if r.eng != before[s].eng || (r.eng != nil && (r.eng.Stats() != before[s].stats || r.eng.Eta() != before[s].eta)) {
					t.Errorf("shard %d: an unchanged shard's engine moved", s)
				}
			}
			c.Solve(context.Background())

			if err := c.Build(p.NewVersion(), nil); err != nil || len(c.changed) != 0 {
				t.Fatalf("a version that changes nothing: %d shards to rebind, %v", len(c.changed), err)
			}
			c.Bind()
		})
	}
}
