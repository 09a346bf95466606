package shard

import (
	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/transform"
)

// StubWarmStart replaces the warm-start constructors (gradient.NewFrom
// and gradient.Carry) until the returned restore function runs, so
// external tests can force the fallback paths on a real server.
func StubWarmStart(fn func(*transform.Extended, *flow.Routing, gradient.Config) (*gradient.Engine, error)) (restore func()) {
	prevFrom, prevCarry := newFrom, carry
	newFrom, carry = fn, fn
	return func() { newFrom, carry = prevFrom, prevCarry }
}

// RebuildOnly makes every shard of c whose problem changed run the
// subset transform and rebind, whatever moved — the path reparameterizing in place stands in
// for, and so the reference the patched-equals-rebuilt test compares it
// against.
func (c *Coordinator) RebuildOnly() {
	for _, r := range c.runners {
		r.rebuildOnly = true
	}
}

// commodityState is one commodity's admission outcome: its
// explanation's name, offered rate and admitted rate.
type commodityState struct {
	Name     string
	Offered  float64
	Admitted float64
}

// commodities projects c.Explain() onto (name, offered, admitted), in
// global commodity order.
func (c *Coordinator) commodities() []commodityState {
	ex := c.Explain()
	out := make([]commodityState, len(ex))
	for gi, e := range ex {
		out[gi] = commodityState{Name: e.Name, Offered: e.Offered, Admitted: e.Admitted}
	}
	return out
}
