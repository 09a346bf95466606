package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/randnet"
	"repro/internal/stream"
)

// randomMutation draws one of the nine ops over p's names, about one in
// four of them unacceptable: an unknown name, a value out of range, a
// name or sink already taken, a commodity already gone.
func randomMutation(rng *rand.Rand, names, nodes []string, specs map[string][]byte, p *stream.Problem) journal.Mutation {
	name := names[rng.Intn(len(names))]
	if rng.Intn(12) == 0 {
		name = "ghost"
	}
	node := nodes[rng.Intn(len(nodes))]
	if rng.Intn(12) == 0 {
		node = "sink:" + names[0] // a sink has no capacity; also never a link's tail
	}
	link := p.Net.G.Edge(graph.EdgeID(rng.Intn(p.Net.G.NumEdges())))
	from, to := p.Net.Names[link.From], p.Net.Names[link.To]
	value := 0.5 + rng.Float64()
	if rng.Intn(12) == 0 {
		value = -value
	}
	switch rng.Intn(9) {
	case 0:
		return journal.AddCommodity(specs[name]) // a conflict while the commodity is there
	case 1:
		return journal.RemoveCommodity(name)
	case 2:
		return journal.SetRate(name, 4*value)
	case 3:
		rates := map[string]float64{name: 4 * value}
		for i := rng.Intn(4); i > 0; i-- {
			rates[names[rng.Intn(len(names))]] = 1 + 4*rng.Float64()
		}
		return journal.SetRates(rates) // one departed member rejects the batch
	case 4:
		if value < 0 {
			return journal.SetUtility(name, []byte(`{"type":"bogus"}`))
		}
		return journal.SetUtility(name, []byte(fmt.Sprintf(`{"type":"log","weight":%g,"scale":1}`, 1+value)))
	case 5:
		return journal.SetCapacity(node, 40*value)
	case 6:
		return journal.ScaleCapacity(node, value+0.5)
	case 7:
		return journal.SetBandwidth(from, to, 40*value)
	default:
		return journal.ScaleBandwidth(from, to, value+0.5)
	}
}

func marshalProblem(t *testing.T, p *stream.Problem) []byte {
	t.Helper()
	b, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mutationTargets lists what randomMutation draws from: p's commodity
// names, its processing nodes and each commodity's encoded spec.
func mutationTargets(t *testing.T, p *stream.Problem) (names, nodes []string, specs map[string][]byte) {
	t.Helper()
	specs = map[string][]byte{}
	for _, c := range p.Commodities {
		names = append(names, c.Name)
		spec, err := p.MarshalCommodityJSON(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		specs[c.Name] = spec
	}
	for i, kind := range p.Net.Kinds {
		if kind == stream.Processing {
			nodes = append(nodes, p.Net.Names[i])
		}
	}
	return names, nodes, specs
}

// TestVersionIsolation is the write path's sharing held to its contract,
// as a property over random mutation sequences: all nine ops, rejected
// ones among them, alone and in mutate's all-or-nothing groups, at 1 and
// 4 shards, with the solver running and a reader marshalling whatever is
// installed (run it under -race). Every installed version still encodes
// to the bytes it had when it was installed; a rejected group installs
// nothing; the last version equals a reference kept by deep Clone +
// journal.Apply; the problem handed to New never moved; and an accepted
// group copied no commodity it does not touch and no vector it does not
// write.
func TestVersionIsolation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
			if err != nil {
				t.Fatal(err)
			}
			marshal := func(p *stream.Problem) []byte { return marshalProblem(t, p) }
			names, nodes, specs := mutationTargets(t, p)
			handed := marshal(p)

			opts := shardedOptions(shards)
			opts.MaxIters, opts.Debounce = 100, time.Millisecond
			s, err := New(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Close() })
			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := s.ProblemJSON(); err != nil {
						t.Error(err)
						return
					}
				}
			}()

			installed := func() *stream.Problem {
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.installedLocked()
			}
			type version struct {
				p     *stream.Problem
				bytes []byte
			}
			versions := []version{{installed(), handed}}
			ref := p.Clone()
			rng := rand.New(rand.NewSource(int64(shards)))
			accepted, rejected := 0, 0
			for step := 0; step < 200; step++ {
				group := make([]journal.Mutation, 1+rng.Intn(3)*rng.Intn(2))
				for i := range group {
					group[i] = randomMutation(rng, names, nodes, specs, ref)
				}
				next, ok := ref.Clone(), true
				for i := range group {
					if journal.Apply(next, &group[i]) != nil {
						ok = false
						break
					}
				}
				before := versions[len(versions)-1]
				_, err := s.mutate(ingress{}, group...)
				after := installed()
				if (err == nil) != ok {
					t.Fatalf("step %d: server says %v, the reference accepted: %v", step, err, ok)
				}
				if !ok {
					rejected++
					if after != before.p || !bytes.Equal(marshal(after), before.bytes) {
						t.Fatalf("step %d: a rejected group changed the installed version", step)
					}
					continue
				}
				accepted++
				ref = next
				versions = append(versions, version{after, marshal(after)})

				touched, network := 0, false
				for i := range group {
					switch m := &group[i]; m.Op {
					case journal.OpSetRates:
						pl, err := journal.Decode[journal.RatesPayload](m)
						if err != nil {
							t.Fatal(err)
						}
						touched += len(pl.Rates)
					case journal.OpAddCommodity, journal.OpRemoveCommodity, journal.OpSetRate, journal.OpSetUtility:
						touched++ // the one commodity its target names
					default:
						network = true
					}
				}
				if len(after.Commodities) == len(before.p.Commodities) {
					copied := 0
					for i, c := range after.Commodities {
						if c != before.p.Commodities[i] {
							copied++
						}
					}
					if copied > touched {
						t.Fatalf("step %d: %d commodities copied for %d touched", step, copied, touched)
					}
				}
				if !network && (&after.Net.Capacity[0] != &before.p.Net.Capacity[0] || &after.Net.Bandwidth[0] != &before.p.Net.Bandwidth[0]) {
					t.Fatalf("step %d: a commodity mutation copied a network vector", step)
				}
			}
			close(stop)
			reader.Wait()
			if accepted < 50 || rejected < 20 {
				t.Fatalf("%d accepted and %d rejected groups: the draw no longer covers both", accepted, rejected)
			}
			for i, v := range versions {
				if !bytes.Equal(marshal(v.p), v.bytes) {
					t.Fatalf("version %d of %d moved after it was installed", i, len(versions))
				}
			}
			if !bytes.Equal(versions[len(versions)-1].bytes, marshal(ref)) {
				t.Fatal("the installed problem differs from the deep-cloned reference")
			}
			if !bytes.Equal(marshal(p), handed) {
				t.Fatal("the problem handed to New moved")
			}
		})
	}
}

// TestMutationAllocatesWhatItTouches: an accepted SetMaxRate allocates
// the next version's pointer slice (8 bytes a commodity) and at most six
// small objects whatever J is — not a copy of the problem, which was
// ≈ 1 MB in 4 552 objects at J=1k. Journaling is off here: six is the
// ceiling of the flight recorder's disabled path (a journaled call
// allocates about twice that and is not pinned).
func TestMutationAllocatesWhatItTouches(t *testing.T) {
	measure := func(j int) (bytesPerCall, objectsPerCall uint64) {
		p, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: j})
		if err != nil {
			t.Fatal(err)
		}
		// The solver stays parked at a gate nobody opens, so the only
		// allocations are the write path's.
		s, err := New(p, Options{SolveGate: make(chan struct{}), Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const calls = 32
		bytesPerCall, objectsPerCall = ^uint64(0), ^uint64(0)
		var before, after runtime.MemStats
		for trial := 0; trial < 3; trial++ { // the least of three: a stray runtime allocation only adds
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				c := p.Commodities[(trial*calls+i)*7%j]
				if _, err := s.SetMaxRate(c.Name, 0.5*c.MaxRate); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			bytesPerCall = min(bytesPerCall, (after.TotalAlloc-before.TotalAlloc)/calls)
			objectsPerCall = min(objectsPerCall, (after.Mallocs-before.Mallocs)/calls)
		}
		return bytesPerCall, objectsPerCall
	}
	var objects []uint64
	for _, j := range []int{1000, 8000} {
		b, n := measure(j)
		t.Logf("J=%d: %d bytes and %d objects per SetMaxRate", j, b, n)
		if limit := uint64(16*j + 4096); b > limit {
			t.Errorf("J=%d: %d bytes per SetMaxRate, want ≤ %d", j, b, limit)
		}
		if n > 6 {
			t.Errorf("J=%d: %d objects per SetMaxRate, want ≤ 6", j, n)
		}
		objects = append(objects, n)
	}
	if objects[0] != objects[1] {
		t.Errorf("objects per SetMaxRate grow with J: %d at 1k, %d at 8k", objects[0], objects[1])
	}
}

// TestUnreadVersionsLendTheirSlice: a version replaced before any
// reader got it lends its commodity slice to a later version, and a
// version a reader got never moves, over random mutation groups,
// rejected ones among them. The solver is gated shut, so the only
// readers are the test's: every fourth version is read, the rest are
// peeked at under the mutex, which leaves them spare.
func TestUnreadVersionsLendTheirSlice(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	if err != nil {
		t.Fatal(err)
	}
	names, nodes, specs := mutationTargets(t, p)
	opts := shardedOptions(1)
	opts.SolveGate = make(chan struct{})
	s, err := New(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	installed := func(read bool) *stream.Problem {
		s.mu.Lock()
		defer s.mu.Unlock()
		if read {
			return s.installedLocked()
		}
		return s.problem
	}
	type version struct {
		p     *stream.Problem
		bytes []byte
	}
	var kept []version
	unread := map[**stream.Commodity]bool{} // slices of versions no reader got
	ref := p.Clone()
	rng := rand.New(rand.NewSource(3))
	lent, accepted := 0, 0
	for step := 0; step < 300; step++ {
		before := installed(false)
		beforeBytes := marshalProblem(t, before)
		group := make([]journal.Mutation, 1+rng.Intn(3)*rng.Intn(2))
		for i := range group {
			group[i] = randomMutation(rng, names, nodes, specs, ref)
		}
		next, ok := ref.Clone(), true
		for i := range group {
			if journal.Apply(next, &group[i]) != nil {
				ok = false
				break
			}
		}
		if _, err := s.mutate(ingress{}, group...); (err == nil) != ok {
			t.Fatalf("step %d: server says %v, the reference accepted: %v", step, err, ok)
		}
		after := installed(false)
		if !ok {
			if after != before || !bytes.Equal(marshalProblem(t, after), beforeBytes) {
				t.Fatalf("step %d: a rejected group changed the installed version", step)
			}
			continue
		}
		accepted++
		ref = next
		if len(after.Commodities) > 0 && unread[&after.Commodities[0]] {
			lent++
		}
		if accepted%4 == 0 {
			after = installed(true)
			kept = append(kept, version{after, marshalProblem(t, after)})
		} else if len(after.Commodities) > 0 {
			unread[&after.Commodities[0]] = true
		}
	}
	for i, v := range kept {
		if !bytes.Equal(marshalProblem(t, v.p), v.bytes) {
			t.Fatalf("read version %d of %d moved after it was read", i, len(kept))
		}
	}
	if !bytes.Equal(marshalProblem(t, installed(true)), marshalProblem(t, ref)) {
		t.Fatal("the installed problem differs from the deep-cloned reference")
	}
	if lent < accepted/3 {
		t.Fatalf("%d of %d accepted groups built in an unread version's slice: spares are not reused", lent, accepted)
	}
}
