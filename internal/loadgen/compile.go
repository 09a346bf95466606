package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/journal"
	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/utility"
	"repro/internal/workload"
)

// minRate is the floor applied to every offered rate: the solver
// requires λ > 0, so processes that dip to zero clamp here.
const minRate = 1e-3

// Compiled is one scenario rendered to a concrete base problem and a
// deterministic mutation script at a given offered-load scale factor.
type Compiled struct {
	Scenario *Scenario
	// Scale multiplied every offered rate (the saturation sweep's
	// knob); 1 is the scenario as written.
	Scale float64
	// Base is the generated substrate with zero commodities: the
	// problem a fresh server starts from. Every sink and link a later
	// arrival needs already exists.
	Base *stream.Problem
	// Epochs is the script, one entry per scenario epoch.
	Epochs []Epoch
}

// Epoch is one epoch of the script: the mutations the server receives,
// in order, and the driver-side view of the problem after them.
type Epoch struct {
	// Mutations are the epoch's arrivals (AddCommodity), then one
	// SetRates of its rate changes when there are any, then its faults,
	// then its departures (RemoveCommodity).
	Mutations []journal.Mutation
	// Changes is what the epoch counts toward RunResult.Mutations: one
	// per mutation, except that a batch of k rates counts k.
	Changes int
	Active  int     // commodities present after the epoch
	Offered float64 // Σλ over them, summed in name order
}

// member is one cohort member's compiled lifecycle.
type member struct {
	name    string
	arrive  int // epoch; >= Epochs means the member never shows up
	depart  int // exclusive; capped at Epochs
	proc    workload.Process
	current float64 // last emitted rate
}

// Compile renders the scenario to its mutation script at the given scale
// factor (≤ 0 means 1). Everything downstream of the scenario seed is
// deterministic: the generated network, each member's arrival and
// departure epochs, and every rate draw.
func Compile(sc *Scenario, scale float64) (*Compiled, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = 1
	}
	total := 0
	for _, co := range sc.Cohorts {
		total += co.Count
	}
	netSeed := sc.Network.Seed
	if netSeed == 0 {
		netSeed = sc.Seed
	}
	// The substrate instance: one generated commodity per member, so
	// every member owns a source, a private sink, and a valid DAG with
	// Property-1 shrinkage factors.
	tmpl, err := randnet.Generate(randnet.Config{
		Nodes:       sc.Network.Nodes,
		Layers:      sc.Network.Layers,
		Commodities: total,
		Seed:        netSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: scenario %q: generate network: %w", sc.Name, err)
	}

	// Carve the generated commodities into cohort members: rename,
	// attach the cohort's class utility, and compile each lifecycle.
	members := make([]*member, 0, total)
	k := 0
	for _, co := range sc.Cohorts {
		cl, hasClass := sc.class(co.Class)
		for i := 0; i < co.Count; i++ {
			m := &member{name: fmt.Sprintf("%s-%d", co.Name, i+1)}
			if err := tmpl.RenameCommodity(tmpl.Commodities[k].Name, m.name); err != nil {
				return nil, fmt.Errorf("loadgen: scenario %q: cohort %q: %w", sc.Name, co.Name, err)
			}
			if hasClass {
				alpha, shift := cl.Alpha, cl.Shift
				if alpha == 0 {
					alpha = 1
				}
				if shift == 0 {
					shift = 1
				}
				u := utility.AlphaFair{Weight: cl.Weight, Alpha: alpha, Shift: shift}
				if err := tmpl.SetUtility(m.name, u); err != nil {
					return nil, fmt.Errorf("loadgen: scenario %q: cohort %q class %q: %w", sc.Name, co.Name, co.Class, err)
				}
			}
			// One rng per member, derived from the scenario seed and
			// the member's global index: lifecycle draws and the rate
			// process are independent streams.
			seed := sc.Seed + int64(k+1)*1_000_003
			rng := rand.New(rand.NewSource(seed))
			m.proc, err = co.Rate.process(seed ^ 0x5DEECE66D)
			if err != nil {
				return nil, fmt.Errorf("loadgen: scenario %q: cohort %q: rate: %w", sc.Name, co.Name, err)
			}
			m.arrive, m.depart = lifecycle(co, i, rng, sc.Epochs)
			members = append(members, m)
			k++
		}
	}

	// Poisson cohorts draw cumulative inter-arrival times, which the
	// per-member rng cannot express member-by-member; fix those up with
	// one cohort-level pass.
	k = 0
	for ci, co := range sc.Cohorts {
		if co.Arrival.Type == "poisson" {
			rng := rand.New(rand.NewSource(sc.Seed + int64(ci+1)*7_919))
			at := 0.0
			for i := 0; i < co.Count; i++ {
				at += rng.ExpFloat64() / co.Arrival.Rate
				a := int(at)
				m := members[k+i]
				shift := a - m.arrive
				m.arrive = a
				if m.depart < sc.Epochs {
					m.depart += shift
				}
				if m.depart > sc.Epochs {
					m.depart = sc.Epochs
				}
			}
		}
		k += co.Count
	}

	// Base problem: the substrate network with zero commodities.
	base := tmpl.Clone()
	for _, m := range members {
		base.RemoveCommodity(m.name)
	}

	c := &Compiled{Scenario: sc, Scale: scale, Base: base}
	offered := map[string]float64{} // λ by present commodity
	for epoch := 0; epoch < sc.Epochs; epoch++ {
		var ep Epoch
		for _, m := range members {
			if m.arrive != epoch || m.depart <= epoch {
				continue
			}
			r := scaledRate(m.proc, epoch, scale)
			if err := tmpl.SetMaxRate(m.name, r); err != nil {
				return nil, fmt.Errorf("loadgen: scenario %q: %s: %w", sc.Name, m.name, err)
			}
			spec, err := tmpl.MarshalCommodityJSON(m.name)
			if err != nil {
				return nil, fmt.Errorf("loadgen: scenario %q: %s: %w", sc.Name, m.name, err)
			}
			m.current = r
			offered[m.name] = r
			ep.Mutations = append(ep.Mutations, journal.AddCommodity(spec))
		}
		rates := map[string]float64{}
		for _, m := range members {
			if epoch <= m.arrive || epoch >= m.depart {
				continue
			}
			if r := scaledRate(m.proc, epoch, scale); r != m.current {
				m.current = r
				offered[m.name] = r
				rates[m.name] = r
			}
		}
		if len(rates) > 0 {
			ep.Mutations = append(ep.Mutations, journal.SetRates(rates))
		}
		for _, f := range sc.Faults {
			if f.At == epoch {
				fm, _ := f.mutation() // Validate accepted it
				ep.Mutations = append(ep.Mutations, fm)
			}
		}
		for _, m := range members {
			if m.depart == epoch && m.arrive < epoch {
				delete(offered, m.name)
				ep.Mutations = append(ep.Mutations, journal.RemoveCommodity(m.name))
			}
		}
		ep.Changes = len(ep.Mutations)
		if len(rates) > 0 {
			ep.Changes += len(rates) - 1 // the batch counts each of its rates
		}
		ep.Active = len(offered)
		ep.Offered = sum(offered)
		c.Epochs = append(c.Epochs, ep)
	}
	return c, nil
}

// lifecycle draws one member's [arrive, depart) interval. Departures
// are relative to the arrival; poisson-cohort arrivals are corrected
// by a cohort-level pass afterwards.
func lifecycle(co CohortSpec, i int, rng *rand.Rand, epochs int) (arrive, depart int) {
	switch co.Arrival.Type {
	case "immediate":
		arrive = 0
	case "flash":
		arrive = co.Arrival.At
		if co.Arrival.Spread > 0 {
			arrive += rng.Intn(co.Arrival.Spread + 1)
		}
	case "poisson":
		arrive = 0 // placeholder; cohort pass assigns the real epoch
	case "uniform":
		arrive = rng.Intn(epochs)
	}
	depart = epochs
	if d := co.Departure; d != nil {
		switch d.Type {
		case "after":
			depart = arrive + d.Dwell
		case "poisson":
			dwell := int(rng.ExpFloat64() * float64(d.Dwell))
			if dwell < 1 {
				dwell = 1
			}
			depart = arrive + dwell
		}
	}
	if depart > epochs {
		depart = epochs
	}
	return arrive, depart
}

// scaledRate evaluates the process at the epoch, applies the sweep
// scale, and clamps to the solver's positive-rate floor.
func scaledRate(p workload.Process, epoch int, scale float64) float64 {
	r := p.Rate(epoch) * scale
	if r < minRate {
		return minRate
	}
	return r
}

// EventStreamJSONL renders the script as one JSON object per line: the
// epoch and the mutation's journal wire form (op, target, encoded
// payload). It is the canonical byte-identical form: same scenario,
// seed, and scale ⇒ same bytes, always.
func (c *Compiled) EventStreamJSONL() ([]byte, error) {
	var out []byte
	for epoch, ep := range c.Epochs {
		for _, m := range ep.Mutations {
			if err := m.Encode(); err != nil { // on the copy: the script stays as built
				return nil, err
			}
			line, err := json.Marshal(struct {
				Epoch int `json:"epoch"`
				journal.Mutation
			}{epoch, m})
			if err != nil {
				return nil, err
			}
			out = append(out, line...)
			out = append(out, '\n')
		}
	}
	return out, nil
}

// sum is Σ of the map's values in name order, so the float addition is
// reproducible run to run.
func sum(m map[string]float64) float64 {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0.0
	for _, name := range names {
		total += m[name]
	}
	return total
}

// EventStreamHash is the hex SHA-256 of EventStreamJSONL — what sweep
// reports embed so replays can prove they drove the identical stream.
func (c *Compiled) EventStreamHash() (string, error) {
	data, err := c.EventStreamJSONL()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
