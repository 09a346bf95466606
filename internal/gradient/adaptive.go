package gradient

import (
	"runtime"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/transform"
)

// AdaptiveConfig tunes the self-adjusting step-size controller.
//
// §5 leaves the choice of η open ("it is possible to choose a η much
// larger to expedite the convergence") and §6 shows the failure mode of
// guessing wrong: too-small η converges slowly, too-large η cycles (see
// experiment T2). AdaptiveEngine automates the choice with a standard
// backtracking rule on the iteration's own cost signal: shrink η
// whenever a step increases the cost A = Y + εD (and roll the step
// back), grow it gently after a run of clean descents. Every decision
// uses only quantities the §5 protocol already computes, so the rule
// is implementable distributedly by piggybacking one scalar (the cost
// sum) on the existing waves.
type AdaptiveConfig struct {
	// InitialEta seeds the search; default 0.04 (§6).
	InitialEta float64
	// MinEta / MaxEta clamp the search range; defaults 1e-5 and 1.0.
	MinEta, MaxEta float64
	// Shrink multiplies η after a cost increase (default 0.5); Grow
	// multiplies it after GrowAfter consecutive descents (default 1.05
	// after 20).
	Shrink, Grow float64
	GrowAfter    int
	// DisableBlocking mirrors Config.DisableBlocking.
	DisableBlocking bool
	// Workers mirrors Config.Workers: the per-commodity wave pool
	// bound, defaulting to GOMAXPROCS.
	Workers int
	// Recorder mirrors Config.Recorder; it additionally receives the
	// current η and a counter of rejected (backtracked) steps.
	Recorder *obs.Recorder
}

func (c *AdaptiveConfig) setDefaults() {
	if c.InitialEta <= 0 {
		c.InitialEta = 0.04
	}
	if c.MinEta <= 0 {
		c.MinEta = 1e-5
	}
	if c.MaxEta <= 0 {
		c.MaxEta = 1.0
	}
	if c.Shrink <= 0 || c.Shrink >= 1 {
		c.Shrink = 0.5
	}
	if c.Grow <= 1 {
		c.Grow = 1.05
	}
	if c.GrowAfter <= 0 {
		c.GrowAfter = 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// AdaptiveEngine wraps the §5 iteration with backtracking step-size
// control.
type AdaptiveEngine struct {
	X   *transform.Extended
	cfg AdaptiveConfig

	eta      float64
	routing  *flow.Routing
	lastCost float64
	descents int
	iter     int

	// Iteration workspaces, allocated once (see Engine): the usage of
	// the current routing, the usage of the proposed step, the spare
	// routing the accept path swaps in, and the wave arena.
	u, uProposed *flow.Usage
	spare        *flow.Routing
	arena        *arena
	admitted     []float64 // behind StepInfo.Admitted

	// Backtracks counts rejected steps (η halvings).
	Backtracks int
}

// NewAdaptive prepares an adaptive engine from the paper-faithful
// initial routing.
func NewAdaptive(x *transform.Extended, cfg AdaptiveConfig) *AdaptiveEngine {
	cfg.setDefaults()
	r := flow.NewInitial(x)
	e := &AdaptiveEngine{
		X:         x,
		cfg:       cfg,
		eta:       cfg.InitialEta,
		routing:   r,
		u:         flow.NewUsage(x),
		uProposed: flow.NewUsage(x),
		spare:     flow.NewZero(x),
		arena:     newArena(x, cfg.Workers),
		admitted:  make([]float64, x.NumCommodities()),
	}
	flow.EvaluateInto(e.u, r)
	e.lastCost = e.u.TotalCost()
	return e
}

// Eta reports the current step scale.
func (e *AdaptiveEngine) Eta() float64 { return e.eta }

// Routing exposes the current routing variables (not a copy). Like
// Engine, the adaptive engine double-buffers, so the returned set is
// only valid until the next Step.
func (e *AdaptiveEngine) Routing() *flow.Routing { return e.routing }

// Solution evaluates the current routing set.
func (e *AdaptiveEngine) Solution() *flow.Usage { return flow.Evaluate(e.routing) }

// Step proposes one Γ update at the current η; if the step raises the
// cost it is rolled back and η halves, otherwise it is kept (and η
// grows after a clean run). The returned StepInfo measures the state
// *after* the accept/reject decision.
func (e *AdaptiveEngine) Step() StepInfo {
	rec := e.cfg.Recorder
	tf := rec.StartPhase(obs.PhaseForecast)
	flow.EvaluateInto(e.u, e.routing)
	tf.Done()
	u := e.u

	next := e.spare
	e.arena.runWave(u, e.eta, !e.cfg.DisableBlocking, rec, next)

	flow.EvaluateInto(e.uProposed, next)
	cost := e.uProposed.TotalCost()
	if cost <= e.lastCost+1e-12 {
		// Accept.
		e.spare, e.routing = e.routing, next
		e.lastCost = cost
		e.descents++
		if e.descents >= e.cfg.GrowAfter {
			e.descents = 0
			if grown := e.eta * e.cfg.Grow; grown <= e.cfg.MaxEta {
				e.eta = grown
			}
		}
		u = e.uProposed
	} else {
		// Reject: keep the old routing, halve the step.
		e.Backtracks++
		rec.Backtrack()
		e.descents = 0
		if shrunk := e.eta * e.cfg.Shrink; shrunk >= e.cfg.MinEta {
			e.eta = shrunk
		}
	}

	info := StepInfo{
		Iteration: e.iter,
		Utility:   u.Utility(),
		Cost:      u.TotalCost(),
	}
	for j := range e.admitted {
		e.admitted[j] = u.AdmittedRate(j)
	}
	info.Admitted = e.admitted
	info.Feasible, _ = u.Feasible()
	e.iter++
	rec.SetEta(e.eta)
	rec.Iteration("gradient-adaptive", info.Iteration, info.Utility, info.Cost, info.Admitted, info.Feasible)
	return info
}

// Run executes n iterations and returns the final StepInfo.
func (e *AdaptiveEngine) Run(n int) StepInfo {
	var last StepInfo
	for i := 0; i < n; i++ {
		last = e.Step()
	}
	return last
}
