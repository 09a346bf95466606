package stream

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/utility"
)

// This file holds the copy and mutation surface problems are edited
// through, in two ownership modes the setters tell apart themselves.
//
// A problem that owns what it points at — parsed, generated, or a deep
// Clone — is edited in place: a *Commodity held across SetMaxRate sees
// the new rate.
//
// A NewVersion shares its predecessor's network topology, capacity and
// bandwidth vectors, *Commodity values (Edges maps included) and name
// index, and every setter copies the one thing it is about to write
// first: the touched Commodity struct, the one vector, the index when
// membership changes. The predecessor never changes, so the admission
// server (internal/server) installs one version per accepted mutation
// at the cost of what the mutation touches, and the solver and GET
// /v1/problem read installed versions without a copy.
//
// None of the methods are safe for concurrent use with each other on
// one problem; callers serialize externally. Reading an older version
// while a newer one is edited is safe.

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
		linkNames: append([]string(nil), n.linkNames...),
	}
	for name, id := range n.byName {
		c.byName[name] = id
	}
	return c
}

// ownTopology makes the topology this network's own before AddServer,
// AddSink or AddLink grow it.
func (n *Network) ownTopology() {
	if n.sharedTopology {
		*n = *n.Clone()
	}
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
	c := &Problem{
		Net:    p.Net.Clone(),
		byName: maps.Clone(p.byName),
		bySink: maps.Clone(p.bySink),
	}
	c.Commodities = make([]*Commodity, len(p.Commodities))
	for i, cm := range p.Commodities {
		c.Commodities[i] = cm.Clone()
	}
	return c
}

// NewVersion returns a problem equal to p that shares p's state instead
// of copying it (see the top of this file): one pointer-slice copy now,
// and each later edit of the new version copies only what it writes. p
// is not written, now or by any edit of the result; whoever still edits
// p in place afterwards changes what the result shares.
func (p *Problem) NewVersion() *Problem {
	return p.newVersion(slices.Clone(p.Commodities))
}

// NewVersionReusing is NewVersion with the result's commodity pointer
// slice built in spare's backing array, so a version costs no O(J)
// allocation while that array is long enough. spare must be a version
// that nothing reads now or will read again: its Commodities slice is
// overwritten, while the *Commodity values it points at, which older
// versions share, are not touched.
func (p *Problem) NewVersionReusing(spare *Problem) *Problem {
	if n := len(p.Commodities); len(spare.Commodities) > n {
		clear(spare.Commodities[n:]) // keep no stale commodity alive
	}
	return p.newVersion(append(spare.Commodities[:0], p.Commodities...))
}

func (p *Problem) newVersion(commodities []*Commodity) *Problem {
	net := *p.Net
	net.sharedTopology, net.sharedCapacity, net.sharedBandwidth = true, true, true
	return &Problem{
		Net:         &net,
		Commodities: commodities,
		byName:      p.byName,
		bySink:      p.bySink,
		sharedIndex: true,
		shared:      true,
	}
}

// CommodityByName finds a commodity by name.
func (p *Problem) CommodityByName(name string) (*Commodity, bool) {
	i, ok := p.byName[name]
	if !ok {
		return nil, false
	}
	return p.Commodities[i], true
}

// writable returns commodity i ready to be written: a copy installed
// in its place when the struct is shared with an older version. The
// copy keeps the Edges map, which no setter writes.
func (p *Problem) writable(i int) *Commodity {
	if p.shared {
		c := *p.Commodities[i]
		p.Commodities[i] = &c
	}
	return p.Commodities[i]
}

// RemoveCommodity deletes the named commodity, reporting whether it
// existed. The network is untouched: edges stay, they just lose that
// commodity's parameters.
func (p *Problem) RemoveCommodity(name string) bool {
	i, ok := p.byName[name]
	if !ok {
		return false
	}
	p.Commodities = slices.Delete(p.Commodities, i, i+1)
	// Every later commodity moved up one: the index is rebuilt, and is
	// this version's own from here on.
	p.byName = make(map[string]int, len(p.Commodities))
	p.bySink = make(map[graph.NodeID]int, len(p.Commodities))
	p.sharedIndex = false
	for k, c := range p.Commodities {
		p.byName[c.Name], p.bySink[c.SinkID] = k, k
	}
	return true
}

// RenameCommodity gives the commodity called old the name name, which no
// other commodity may hold.
func (p *Problem) RenameCommodity(old, name string) error {
	i, ok := p.byName[old]
	if !ok {
		return fmt.Errorf("stream: commodity %q: %w", old, ErrNotFound)
	}
	if old == name {
		return nil
	}
	if _, taken := p.byName[name]; taken {
		return fmt.Errorf("stream: duplicate commodity name %q: %w", name, ErrConflict)
	}
	p.ownIndex()
	delete(p.byName, old)
	p.byName[name] = i
	p.writable(i).Name = name
	return nil
}

// SetMaxRate updates a commodity's offered rate λ_j.
func (p *Problem) SetMaxRate(name string, rate float64) error {
	i, ok := p.byName[name]
	if !ok {
		return fmt.Errorf("stream: commodity %q: %w", name, ErrNotFound)
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("stream: commodity %q: max rate must be positive and finite, got %g", name, rate)
	}
	p.writable(i).MaxRate = rate
	return nil
}

// SetUtility replaces a commodity's utility function, validating it
// against the commodity's current offered rate.
func (p *Problem) SetUtility(name string, u utility.Function) error {
	i, ok := p.byName[name]
	if !ok {
		return fmt.Errorf("stream: commodity %q: %w", name, ErrNotFound)
	}
	if u == nil {
		return fmt.Errorf("stream: commodity %q: nil utility", name)
	}
	if err := utility.Validate(u, p.Commodities[i].MaxRate); err != nil {
		return fmt.Errorf("stream: commodity %q: %v", name, err)
	}
	p.writable(i).Utility = u
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
	if n.sharedCapacity {
		n.Capacity, n.sharedCapacity = slices.Clone(n.Capacity), false
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
	if n.sharedBandwidth {
		n.Bandwidth, n.sharedBandwidth = slices.Clone(n.Bandwidth), false
	}
	n.Bandwidth[e] = bandwidth
	return nil
}
