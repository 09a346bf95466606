package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/journal"
	"repro/internal/shard"
	"repro/internal/stream"
)

// op is one mutation call. The embedded journal.Mutation is its
// canonical form — what the script hash covers and what journal.Apply
// replays onto the traced run's mirror problem; rate and rates carry the
// same values typed, so a client issues the call without decoding JSON
// inside the timed ack.
type op struct {
	journal.Mutation
	rate  float64            // OpSetRate: new λ; OpSetCapacity: new C
	rates map[string]float64 // OpSetRates
}

// step is one decision: its calls are issued back to back, then the
// client waits for the snapshot that incorporates the last of them.
type step []op

// script is a workload's whole mutation sequence for one seed.
type script struct {
	steps []step
	sha   string
}

// calls counts the script's mutation calls.
func (s *script) calls() int {
	n := 0
	for _, st := range s.steps {
		n += len(st)
	}
	return n
}

// prefix is the script's first n steps (the traced run replays a
// quarter). The hash stays that of the full script.
func (s *script) prefix(n int) *script {
	return &script{steps: s.steps[:n], sha: s.sha}
}

// cycler deals out 0..n-1 in a seed-shuffled order, over and over: every
// seed's script covers the same population of commodities and nodes, so
// the seed changes the order and the values, not the mix of work.
type cycler struct {
	perm []int
	at   int
}

func (c *cycler) next() int {
	v := c.perm[c.at]
	c.at = (c.at + 1) % len(c.perm)
	return v
}

// scriptGen draws ops against the generated instance. Every new value is
// relative to that instance — rates base λ × U[0.5,1.5], capacities base
// C or 0.8 × base C — so the problem never drifts however long the
// script, and an even number of faults leaves every capacity restored.
type scriptGen struct {
	r       *rand.Rand
	base    *stream.Problem
	names   []string  // commodity names in instance order
	lambda  []float64 // base λ_j, same order
	servers []string  // processing nodes that carry capacity
	caps    []float64 // base C, same order
	faulted int       // index into servers of the degraded node, -1 if none

	rateAt, departAt, faultAt cycler
}

func newScriptGen(base *stream.Problem, seed int64) *scriptGen {
	g := &scriptGen{r: rand.New(rand.NewSource(seed)), base: base, faulted: -1}
	for _, c := range base.Commodities {
		g.names = append(g.names, c.Name)
		g.lambda = append(g.lambda, c.MaxRate)
	}
	for id, kind := range base.Net.Kinds {
		if kind == stream.Processing {
			g.servers = append(g.servers, base.Net.Names[id])
			g.caps = append(g.caps, base.Net.Capacity[id])
		}
	}
	g.rateAt = cycler{perm: g.r.Perm(len(g.names))}
	g.departAt = cycler{perm: g.r.Perm(len(g.names))}
	g.faultAt = cycler{perm: g.r.Perm(len(g.servers))}
	return g
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and finite floats
	}
	return b
}

func (g *scriptGen) newRate(j int) float64 { return g.lambda[j] * (0.5 + g.r.Float64()) }

func rateOp(name string, rate float64) op {
	return op{
		Mutation: journal.Mutation{Op: journal.OpSetRate, Target: name, Payload: mustJSON(journal.RatePayload{Rate: rate})},
		rate:     rate,
	}
}

// rates is one rate-change decision: n single-commodity calls on the
// next n commodities. One call would do for the decision, but its ack is
// the run's only look at the cost of accepting a mutation, and a script
// of one-call decisions yields a few dozen acks at paper scale and four
// at J=10k. With keep, only commodities it accepts are taken.
func (g *scriptGen) rates(n int, keep func(name string) bool) step {
	var st step
	for len(st) < n {
		j := g.rateAt.next()
		if keep == nil || keep(g.names[j]) {
			st = append(st, rateOp(g.names[j], g.newRate(j)))
		}
	}
	return st
}

// pick takes the next n commodities (distinct while n ≤ J) and draws a
// new rate for each.
func (g *scriptGen) pick(n int) (names []string, rates []float64) {
	for ; n > 0; n-- {
		j := g.rateAt.next()
		names = append(names, g.names[j])
		rates = append(rates, g.newRate(j))
	}
	return names, rates
}

// batch is the same change set as one SetMaxRates call.
func batch(names []string, rates []float64) op {
	m := make(map[string]float64, len(names))
	for i, name := range names {
		m[name] = rates[i]
	}
	return op{
		Mutation: journal.Mutation{
			Op:      journal.OpSetRates,
			Target:  fmt.Sprintf("batch:%d", len(m)),
			Payload: mustJSON(journal.RatesPayload{Rates: m}),
		},
		rates: m,
	}
}

// singles is the change set as one SetMaxRate call per commodity.
func singles(names []string, rates []float64) step {
	st := make(step, len(names))
	for i, name := range names {
		st[i] = rateOp(name, rates[i])
	}
	return st
}

func depart(name string) op {
	return op{Mutation: journal.Mutation{Op: journal.OpRemoveCommodity, Target: name}}
}

// arrive re-admits a commodity exactly as the instance generated it.
func (g *scriptGen) arrive(name string) (op, error) {
	spec, err := g.base.MarshalCommodityJSON(name)
	if err != nil {
		return op{}, err
	}
	return op{Mutation: journal.Mutation{Op: journal.OpAddCommodity, Target: name, Payload: spec}}, nil
}

// fault cuts the next node to 0.8 × its base capacity, or restores the
// node the previous fault cut: faults come in pairs on one node.
func (g *scriptGen) fault() op {
	i, c := g.faulted, 0.0
	if i >= 0 {
		c, g.faulted = g.caps[i], -1
	} else {
		i = g.faultAt.next()
		c, g.faulted = 0.8*g.caps[i], i
	}
	return op{
		Mutation: journal.Mutation{Op: journal.OpSetCapacity, Target: g.servers[i], Payload: mustJSON(journal.CapacityPayload{Capacity: c})},
		rate:     c,
	}
}

// finish hashes the canonical form of every call, in order.
func finish(steps []step) *script {
	h := sha256.New()
	for i, st := range steps {
		for _, o := range st {
			fmt.Fprintf(h, "%d %s %s %s\n", i, o.Op, o.Target, o.Payload)
		}
	}
	return &script{steps: steps, sha: hex.EncodeToString(h.Sum(nil))}
}

// churnScript cycles rate change → depart S_k → re-arrive S_k → capacity
// fault. The rate change is 8 single calls, the others one call.
func churnScript(g *scriptGen, decisions int) ([]step, error) {
	var steps []step
	for len(steps) < decisions {
		k := g.names[g.departAt.next()]
		back, err := g.arrive(k)
		if err != nil {
			return nil, err
		}
		steps = append(steps, g.rates(8, nil), step{depart(k)}, step{back}, step{g.fault()})
	}
	return steps[:decisions], nil
}

// ratesScript is rate changes of 4 single calls each, with every 8th
// decision a capacity fault.
func ratesScript(g *scriptGen, decisions int) ([]step, error) {
	steps := make([]step, decisions)
	for i := range steps {
		if i%8 == 7 {
			steps[i] = step{g.fault()}
		} else {
			steps[i] = g.rates(4, nil)
		}
	}
	return steps, nil
}

// burstWidth is how many single calls one burst round fires.
const burstWidth = 256

// burstScript changes burstWidth commodities per round: as that many
// single calls, or, every 4th round, as one batch call.
func burstScript(g *scriptGen, rounds int) ([]step, error) {
	steps := make([]step, rounds)
	for i := range steps {
		names, rates := g.pick(burstWidth)
		if i%4 == 3 {
			steps[i] = step{batch(names, rates)}
		} else {
			steps[i] = singles(names, rates)
		}
	}
	return steps, nil
}

// shardedScript cycles rate change (8 single calls on commodities of one
// shard, so one shard is dirty) → 100-commodity batch (all shards) →
// capacity fault (all shards), the fault cutting a node in one cycle and
// restoring it in the next.
func shardedScript(g *scriptGen, decisions int) ([]step, error) {
	o := shardedOptions()
	steps := make([]step, decisions)
	for i := range steps {
		switch i % 3 {
		case 0:
			owner := -1
			steps[i] = g.rates(8, func(name string) bool {
				s := shard.Place(name, o.PlacementSalt, o.Shards)
				if owner < 0 {
					owner = s
				}
				return s == owner
			})
		case 1:
			steps[i] = step{batch(g.pick(100))}
		case 2:
			steps[i] = step{g.fault()}
		}
	}
	return steps, nil
}
