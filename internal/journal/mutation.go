package journal

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/stream"
)

// Mutation operation names. These match the `kind` labels
// internal/server feeds the obs recorder, so a journal and an event
// stream from the same run agree on vocabulary.
const (
	OpAddCommodity    = "add_commodity"
	OpRemoveCommodity = "remove_commodity"
	OpSetRate         = "set_rate"
	OpSetRates        = "set_rates"
	OpSetUtility      = "set_utility"
	OpSetCapacity     = "set_capacity"
	OpSetBandwidth    = "set_bandwidth"
	OpScaleCapacity   = "scale_capacity"
	OpScaleBandwidth  = "scale_bandwidth"
)

// Mutation is one change to a stream.Problem, and the one value the
// write path carries: the typed server methods, the HTTP routes, the
// load driver and the replay verifier all hand a Mutation to
// server.Apply, which runs Apply on it and journals it. Op, Target and
// Payload are the wire format. Build mutations with the constructors
// below: they fix the target label and the payload shape, and keep the
// typed operands beside the not-yet-encoded Payload, so a server that
// does not journal neither marshals nor unmarshals anything.
type Mutation struct {
	Op      string          `json:"op"`
	Target  string          `json:"target,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`

	// operand is the constructor's typed payload (a RatePayload, a
	// LinkPayload, …); nil on a record read from disk, and for the ops
	// whose payload arrives as JSON already.
	operand any
}

// Mutation payload shapes: what Encode writes and Decode reads.

// RatePayload carries OpSetRate.
type RatePayload struct {
	Rate float64 `json:"rate"`
}

// RatesPayload carries OpSetRates. Go's JSON encoder writes map keys
// sorted, so the recorded bytes are deterministic for a given batch.
type RatesPayload struct {
	Rates map[string]float64 `json:"rates"`
}

// CapacityPayload carries OpSetCapacity.
type CapacityPayload struct {
	Capacity float64 `json:"capacity"`
}

// ScalePayload carries OpScaleCapacity.
type ScalePayload struct {
	Factor float64 `json:"factor"`
}

// LinkPayload carries OpSetBandwidth (Bandwidth set) and
// OpScaleBandwidth (Factor set). The endpoints live in the payload —
// not parsed out of the "from->to" target label — so names containing
// "->" cannot corrupt a replay.
type LinkPayload struct {
	From      string  `json:"from"`
	To        string  `json:"to"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	Factor    float64 `json:"factor,omitempty"`
}

// AddCommodity admits the commodity spec describes, in the problem
// schema's commodity JSON form (see internal/stream). The extended
// topology changes, so the next solve cold-starts.
func AddCommodity(spec []byte) Mutation {
	var meta struct {
		Name string `json:"name"`
	}
	_ = json.Unmarshal(spec, &meta) // best-effort label; Apply's full parse validates
	return Mutation{Op: OpAddCommodity, Target: meta.Name, Payload: spec}
}

// RemoveCommodity ends a commodity's session.
func RemoveCommodity(name string) Mutation {
	return Mutation{Op: OpRemoveCommodity, Target: name}
}

// SetRate updates a commodity's offered rate λ_j.
func SetRate(name string, rate float64) Mutation {
	return Mutation{Op: OpSetRate, Target: name, operand: RatePayload{Rate: rate}}
}

// SetRates updates many commodities' offered rates as one mutation,
// all or nothing: an unknown commodity or an invalid rate rejects the
// whole batch, as does an empty one.
func SetRates(rates map[string]float64) Mutation {
	return Mutation{Op: OpSetRates, Target: fmt.Sprintf("batch:%d", len(rates)), operand: RatesPayload{Rates: rates}}
}

// SetUtility replaces a commodity's utility function (its admission
// weight) from the schema's utility JSON form.
func SetUtility(name string, spec []byte) Mutation {
	return Mutation{Op: OpSetUtility, Target: name, Payload: spec}
}

// SetCapacity changes a processing node's capacity — the failure and
// recovery injection primitive.
func SetCapacity(node string, capacity float64) Mutation {
	return Mutation{Op: OpSetCapacity, Target: node, operand: CapacityPayload{Capacity: capacity}}
}

// ScaleCapacity multiplies a node's capacity by factor — the E8
// failure-injection idiom (0.25 models a three-quarter outage, a later
// 4.0 restores it).
func ScaleCapacity(node string, factor float64) Mutation {
	return Mutation{Op: OpScaleCapacity, Target: node, operand: ScalePayload{Factor: factor}}
}

// SetBandwidth changes a link's bandwidth.
func SetBandwidth(from, to string, bandwidth float64) Mutation {
	return Mutation{Op: OpSetBandwidth, Target: from + "->" + to, operand: LinkPayload{From: from, To: to, Bandwidth: bandwidth}}
}

// ScaleBandwidth multiplies a link's bandwidth by factor.
func ScaleBandwidth(from, to string, factor float64) Mutation {
	return Mutation{Op: OpScaleBandwidth, Target: from + "->" + to, operand: LinkPayload{From: from, To: to, Factor: factor}}
}

// Encode fills Payload from the constructor's operands when it is not
// there yet; the server calls it on the copy it journals.
func (m *Mutation) Encode() error {
	if m.Payload != nil || m.operand == nil {
		return nil
	}
	b, err := json.Marshal(m.operand)
	if err != nil {
		return fmt.Errorf("journal: %s payload: %w", m.Op, err)
	}
	m.Payload = b
	return nil
}

// Decode returns the mutation's operands as payload type T: the
// constructor's typed value when the mutation has one, else Payload
// decoded.
func Decode[T any](m *Mutation) (T, error) {
	if v, ok := m.operand.(T); ok {
		return v, nil
	}
	var v T
	if err := json.Unmarshal(m.Payload, &v); err != nil {
		return v, fmt.Errorf("journal: %s payload: %w", m.Op, err)
	}
	return v, nil
}

// Touches names the commodities the mutation changes — the unit of
// dirty tracking: only the solver shards that own one of them are
// brought up to date by the next solve. nil means network-wide: a
// capacity or bandwidth change shifts every shard's barrier.
func (m *Mutation) Touches() []string {
	switch m.Op {
	case OpAddCommodity, OpRemoveCommodity, OpSetRate, OpSetUtility:
		return []string{m.Target}
	case OpSetRates:
		pl, err := Decode[RatesPayload](m)
		if err != nil {
			return nil
		}
		names := make([]string, 0, len(pl.Rates))
		for name := range pl.Rates {
			names = append(names, name)
		}
		return names
	}
	return nil
}

// Apply performs one mutation on a problem. It is the only definition
// of the nine ops: the live server runs it on the next version of its
// desired problem (stream.Problem.NewVersion, whose setters copy what
// they write), and recovery runs it in place to roll a checkpoint
// forward, so the two cannot drift. On error the problem may be partly
// changed; callers that need all-or-nothing apply to a NewVersion or a
// Clone and swap on success.
// Recorded mutations were validated before they were journaled, so an
// error from recovery means the journal does not match the checkpoint
// (corruption or version skew).
func Apply(p *stream.Problem, m *Mutation) error {
	if m == nil {
		return fmt.Errorf("journal: nil mutation")
	}
	switch m.Op {
	case OpAddCommodity:
		_, err := p.AddCommodityFromJSON(m.Payload)
		return err
	case OpRemoveCommodity:
		if !p.RemoveCommodity(m.Target) {
			return fmt.Errorf("journal: commodity %q: %w", m.Target, stream.ErrNotFound)
		}
		return nil
	case OpSetRate:
		pl, err := Decode[RatePayload](m)
		if err != nil {
			return err
		}
		return p.SetMaxRate(m.Target, pl.Rate)
	case OpSetRates:
		pl, err := Decode[RatesPayload](m)
		if err != nil {
			return err
		}
		if len(pl.Rates) == 0 {
			return fmt.Errorf("journal: empty rate batch")
		}
		names := make([]string, 0, len(pl.Rates))
		for name := range pl.Rates {
			names = append(names, name)
		}
		sort.Strings(names) // so the first error is deterministic
		for _, name := range names {
			if err := p.SetMaxRate(name, pl.Rates[name]); err != nil {
				return err
			}
		}
		return nil
	case OpSetUtility:
		u, err := stream.ParseUtilityJSON(m.Payload)
		if err != nil {
			return err
		}
		return p.SetUtility(m.Target, u)
	case OpSetCapacity:
		pl, err := Decode[CapacityPayload](m)
		if err != nil {
			return err
		}
		return p.Net.SetCapacity(m.Target, pl.Capacity)
	case OpScaleCapacity:
		pl, err := Decode[ScalePayload](m)
		if err != nil {
			return err
		}
		id, ok := p.Net.NodeByName(m.Target)
		if !ok {
			return fmt.Errorf("journal: node %q: %w", m.Target, stream.ErrNotFound)
		}
		return p.Net.SetCapacity(m.Target, p.Net.Capacity[id]*pl.Factor)
	case OpSetBandwidth:
		pl, err := Decode[LinkPayload](m)
		if err != nil {
			return err
		}
		return p.Net.SetBandwidth(pl.From, pl.To, pl.Bandwidth)
	case OpScaleBandwidth:
		pl, err := Decode[LinkPayload](m)
		if err != nil {
			return err
		}
		e, err := p.Net.LinkByName(pl.From, pl.To)
		if err != nil {
			return err
		}
		return p.Net.SetBandwidth(pl.From, pl.To, p.Net.Bandwidth[e]*pl.Factor)
	default:
		return fmt.Errorf("journal: unknown mutation op %q", m.Op)
	}
}
