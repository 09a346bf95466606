package shard

import (
	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/transform"
)

// StubWarmStart replaces the warm-start constructor (gradient.NewFrom)
// until the returned restore function runs, so external tests can force
// the fallback paths on a real server.
func StubWarmStart(fn func(*transform.Extended, *flow.Routing, gradient.Config) (*gradient.Engine, error)) (restore func()) {
	prev := newFrom
	newFrom = fn
	return func() { newFrom = prev }
}
