package stream

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/utility"
)

// This file holds the deep-copy and in-place mutation surface the
// admission server (internal/server) edits problems through: each
// accepted mutation Clones the desired problem, applies its rate,
// utility, capacity or membership update to the clone and installs it;
// an installed problem is never edited again, so the solver reads it
// without a copy. None of the methods are safe for concurrent use with
// each other; callers serialize externally.

// ErrNotFound and ErrConflict classify a rejected mutation for callers
// that answer differently by cause (the HTTP API's 404 and 409): the
// commodity, node or link it names does not exist, or the name or sink
// it claims is taken. Test with errors.Is; every other rejection is a
// malformed or out-of-range value.
var (
	ErrNotFound = errors.New("not found")
	ErrConflict = errors.New("conflict")
)

// Clone returns a deep copy of the network: the graph, every attribute
// slice, and the name index are fresh allocations, so no mutation of
// the clone is observable through the original (and vice versa).
func (n *Network) Clone() *Network {
	c := &Network{
		G:         n.G.Clone(),
		Names:     append([]string(nil), n.Names...),
		Kinds:     append([]NodeKind(nil), n.Kinds...),
		Capacity:  append([]float64(nil), n.Capacity...),
		Bandwidth: append([]float64(nil), n.Bandwidth...),
		byName:    make(map[string]graph.NodeID, len(n.byName)),
	}
	for name, id := range n.byName {
		c.byName[name] = id
	}
	return c
}

// Clone returns a deep copy of the commodity. The Edges map is copied;
// the Utility function is shared, which is safe because every
// utility.Function in this module is an immutable value type.
func (c *Commodity) Clone() *Commodity {
	d := *c
	d.Edges = make(map[graph.EdgeID]EdgeParams, len(c.Edges))
	for e, params := range c.Edges {
		d.Edges[e] = params
	}
	return &d
}

// Clone returns a deep copy of the problem: network, commodities, and
// every per-edge parameter map. Mutating the clone (rates, capacities,
// edge sets, commodity membership) never leaks into the original.
func (p *Problem) Clone() *Problem {
	c := &Problem{Net: p.Net.Clone()}
	c.Commodities = make([]*Commodity, len(p.Commodities))
	for i, cm := range p.Commodities {
		c.Commodities[i] = cm.Clone()
	}
	return c
}

// CommodityByName finds a commodity by name.
func (p *Problem) CommodityByName(name string) (*Commodity, bool) {
	for _, c := range p.Commodities {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// RemoveCommodity deletes the named commodity, reporting whether it
// existed. The network is untouched: edges stay, they just lose that
// commodity's parameters.
func (p *Problem) RemoveCommodity(name string) bool {
	for i, c := range p.Commodities {
		if c.Name == name {
			p.Commodities = append(p.Commodities[:i], p.Commodities[i+1:]...)
			return true
		}
	}
	return false
}

// SetMaxRate updates a commodity's offered rate λ_j.
func (p *Problem) SetMaxRate(name string, rate float64) error {
	c, ok := p.CommodityByName(name)
	if !ok {
		return fmt.Errorf("stream: commodity %q: %w", name, ErrNotFound)
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("stream: commodity %q: max rate must be positive and finite, got %g", name, rate)
	}
	c.MaxRate = rate
	return nil
}

// SetUtility replaces a commodity's utility function, validating it
// against the commodity's current offered rate.
func (p *Problem) SetUtility(name string, u utility.Function) error {
	c, ok := p.CommodityByName(name)
	if !ok {
		return fmt.Errorf("stream: commodity %q: %w", name, ErrNotFound)
	}
	if u == nil {
		return fmt.Errorf("stream: commodity %q: nil utility", name)
	}
	if err := utility.Validate(u, c.MaxRate); err != nil {
		return fmt.Errorf("stream: commodity %q: %v", name, err)
	}
	c.Utility = u
	return nil
}

// SetCapacity updates a processing node's computing capacity C_u. This
// is the failure-injection primitive the E8 experiment and the
// admission server share: cutting a capacity models a partial node
// failure, restoring it models recovery.
func (n *Network) SetCapacity(name string, capacity float64) error {
	id, ok := n.byName[name]
	if !ok {
		return fmt.Errorf("stream: node %q: %w", name, ErrNotFound)
	}
	if n.Kinds[id] != Processing {
		return fmt.Errorf("stream: node %q is a sink, not a processing node", name)
	}
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("stream: node %q: capacity must be positive and finite, got %g", name, capacity)
	}
	n.Capacity[id] = capacity
	return nil
}

// LinkByName finds a link by its endpoint names.
func (n *Network) LinkByName(from, to string) (graph.EdgeID, error) {
	f, ok := n.byName[from]
	if !ok {
		return graph.Invalid, fmt.Errorf("stream: node %q: %w", from, ErrNotFound)
	}
	t, ok := n.byName[to]
	if !ok {
		return graph.Invalid, fmt.Errorf("stream: node %q: %w", to, ErrNotFound)
	}
	e := n.G.EdgeBetween(f, t)
	if e < 0 {
		return graph.Invalid, fmt.Errorf("stream: link (%s,%s): %w", from, to, ErrNotFound)
	}
	return e, nil
}

// SetBandwidth updates a link's bandwidth B_ik, identified by endpoint
// names.
func (n *Network) SetBandwidth(from, to string, bandwidth float64) error {
	e, err := n.LinkByName(from, to)
	if err != nil {
		return err
	}
	if bandwidth <= 0 || math.IsNaN(bandwidth) || math.IsInf(bandwidth, 0) {
		return fmt.Errorf("stream: link (%s,%s): bandwidth must be positive and finite, got %g", from, to, bandwidth)
	}
	n.Bandwidth[e] = bandwidth
	return nil
}
