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
