package gradient

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/flow"
	"repro/internal/transform"
)

// Config tunes the algorithm.
type Config struct {
	// Eta is the scale factor η of Γ (eq. 16). §6 uses 0.04 for the
	// headline experiment; larger values converge faster but may
	// oscillate. Zero or negative means 0.04. With Backtrack set it is
	// only the initial step.
	Eta float64
	// Backtrack turns on step control. §5 leaves η open ("it is
	// possible to choose a η much larger to expedite the convergence")
	// and §6 shows both ways of guessing wrong (experiment T2), so the
	// engine can choose: a step that raises the cost A = Y + εD is
	// rolled back and η halves; η grows by 5% after 20 descents in a
	// row, within [1e-5, 1]. The rule reads only the cost sum the §5
	// waves already carry. Off (the default) is the paper's fixed η.
	Backtrack bool
	// Momentum is the heavy-ball coefficient μ: each branch node's
	// proposal gains μ·(φ_k − φ_{k−1}), projected back onto its simplex,
	// except at a node where Γ's step turns against the last one (see
	// heavyBall). The history restarts on a rejected step, on Restart,
	// and in every new engine. Zero (the default) is the paper's step;
	// the admission server's serving mode sets 0.9 (shard.Config). Meant
	// for DisableBlocking: the tags do not see the term.
	Momentum float64
	// DisableBlocking turns the loop-freedom tagging protocol off.
	// Safe here because member subgraphs are DAGs. The serving mode sets
	// it (shard.Config.Serving); the blocking tests ablate it.
	DisableBlocking bool
	// Workers bounds the worker pool that runs the per-commodity §5
	// waves concurrently (the phases are independent across commodities,
	// mirroring the paper's distributed execution). Zero or negative
	// means GOMAXPROCS. Any value produces the same trajectory bit for
	// bit; Workers: 1 runs the waves inline.
	Workers int
}

func (c *Config) setDefaults() {
	if c.Eta <= 0 {
		c.Eta = 0.04
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Stats accumulates the distributed-protocol accounting across
// iterations: the paper's §6 comparison of per-iteration message
// exchanges (gradient needs O(L) sequential rounds per iteration,
// back-pressure O(1)).
type Stats struct {
	Iterations int
	// Messages counts protocol messages: one rho broadcast per member
	// edge in the marginal-cost wave plus one forecast message per
	// member edge in the flow-forecast wave, per commodity.
	Messages int
	// Rounds counts sequential message-exchange steps: per iteration
	// the deepest commodity DAG bounds the wave latency.
	Rounds int
}

// StepInfo reports the state measured at the start of an iteration
// (before the routing update), so a trace of StepInfo values is the
// utility-versus-iteration curve of Figure 4. That holds in both step
// modes: under Config.Backtrack it is the point the proposed step was
// judged against, not the outcome of the accept/reject decision.
type StepInfo struct {
	Iteration int
	Utility   float64 // Σ_j U_j(a_j)
	Cost      float64 // A = Y + εD
	// Admitted is a_j per commodity. It aliases a buffer the engine
	// overwrites on its next Step; callers that keep a StepInfo across
	// steps copy it (Engine.Run's trace does).
	Admitted []float64
	Feasible bool // f_i ≤ C_i at every node
}

// Engine runs the gradient-based algorithm synchronously.
type Engine struct {
	X   *transform.Extended
	R   *flow.Routing
	cfg Config

	// Iteration workspaces, allocated once: the evaluated usage (current
	// for R while forecasted is set), the spare routing Step swaps with R
	// (double-buffering in place of the old per-step Clone), the wave
	// arena, and the buffer behind StepInfo.Admitted.
	u          *flow.Usage
	forecasted bool
	spare      *flow.Routing
	arena      *arena
	admitted   []float64

	// The carried evaluation: while carried is set, cost and feasible
	// are A and f ≤ C of the usage in u, and arena.price holds its node
	// prices, all under the External installed when they were made. The
	// backtrack that accepts a routing computes them (it has to judge
	// it anyway), so the next Step reads them instead of walking the
	// nodes again. carried implies forecasted.
	carried  bool
	cost     float64
	feasible bool

	// heavy is set while spare holds the routing accepted before R (the
	// one accept replaced), so the next wave adds the heavy-ball term.
	heavy bool

	// Step control: eta is the current step scale (cfg.Eta for good
	// without Backtrack).
	eta        float64
	descents   int // accepted steps since η last changed
	backtracks int

	stats Stats
}

// The backtracking rule's constants: the factor η shrinks by on a
// rejected step, the factor it grows by after growAfter accepted steps
// in a row, and the range it stays in.
const (
	etaShrink = 0.5
	etaGrow   = 1.05
	growAfter = 20
	etaMin    = 1e-5
	etaMax    = 1.0
)

// New prepares an engine from the paper-faithful initial routing
// (everything rejected; see flow.NewInitial).
func New(x *transform.Extended, cfg Config) *Engine {
	return newEngine(x, flow.NewInitial(x), cfg)
}

func newEngine(x *transform.Extended, r *flow.Routing, cfg Config) *Engine {
	cfg.setDefaults()
	return &Engine{
		X: x, R: r, cfg: cfg, eta: cfg.Eta,
		u:        flow.NewUsage(x),
		spare:    flow.NewZero(x),
		arena:    newArena(x, cfg.Workers),
		admitted: make([]float64, x.NumCommodities()),
	}
}

// NewFrom starts from an explicit routing set (used for warm starts in
// the dynamic-tracking experiment E7 and by the admission server). The
// routing is rebound to x, so a routing converged under old parameters
// (offered rates, capacities) is evaluated against the new ones; x must
// share the topology of the routing's original problem or NewFrom
// returns the rebind error. Callers that fall back to a cold start
// check errors.Is(err, flow.ErrTopologyChanged): true means the
// extended problem changed shape (commodities added/removed, network
// elements changed) and a cold start is the expected recovery; false
// means a real bug worth surfacing.
func NewFrom(x *transform.Extended, r *flow.Routing, cfg Config) (*Engine, error) {
	bound, err := r.Rebind(x)
	if err != nil {
		return nil, fmt.Errorf("gradient: warm start: %w", err)
	}
	return newEngine(x, bound, cfg), nil
}

// Carry is NewFrom for a rebuilt problem whose commodities need not all
// be the routing's: the routing is carried onto x row by row
// (flow.Routing.Carry), so the commodities x continues start where they
// were, in rate space, and new ones start from flow.NewInitial's row.
// Like every new engine it starts without momentum: the heavy-ball
// history begins at the carried routing. The error wraps
// flow.ErrTopologyChanged when nothing carries over.
func Carry(x *transform.Extended, r *flow.Routing, cfg Config) (*Engine, error) {
	carried, err := r.Carry(x)
	if err != nil {
		return nil, fmt.Errorf("gradient: warm start: %w", err)
	}
	return newEngine(x, carried, cfg), nil
}

// Restart makes the engine what NewFrom(e.X, e.Routing(), cfg) would
// return with cfg.Eta set to e.Eta(), without the copies: for after e.X
// was reparameterized in place (transform.Extended.Reparameterize). The
// routing carries over, its forecast under the old parameters is
// dropped, the counters start again and so does Backtrack's run of
// descents, but the step scale stays where step control has moved it.
// The momentum resets too: the last step was taken under the old
// parameters. The trajectory from here is the one a rebuilt, rebound
// engine started at that η would take, bit for bit, in both step modes.
func (e *Engine) Restart() {
	e.forecasted, e.carried, e.heavy = false, false, false
	e.descents, e.backtracks = 0, 0
	e.stats = Stats{}
}

// ExternalChanged tells the engine that e.X.External may have been
// rewritten since it last stepped. The flows of its routing stand — they
// do not depend on External — but the cost, feasibility and node prices
// it carried from its last accepted step were taken at the old global
// operating point and are dropped. The momentum is kept: the routing's
// last step is still its last step, and a coordinator's turns would
// otherwise restart it every 25 iterations. Whoever rewrites External
// in place between steps calls it before the next one; a coordinator
// calls it at the start of every turn.
func (e *Engine) ExternalChanged() { e.carried = false }

// Stats returns protocol accounting accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// Eta reports the current step scale: Config.Eta, or wherever
// backtracking has moved it.
func (e *Engine) Eta() float64 { return e.eta }

// Backtracks counts the steps rejected so far (always zero without
// Config.Backtrack).
func (e *Engine) Backtracks() int { return e.backtracks }

// Routing exposes the current routing variables (not a copy). The
// engine double-buffers its routing, so the returned set is only valid
// until the next Step; callers that need a durable snapshot Clone it.
func (e *Engine) Routing() *flow.Routing { return e.R }

// Usage returns the flows the current routing induces, evaluated in the
// engine's own workspace: no allocation, and no work when that
// workspace already holds them (nothing has stepped since a convergence
// check or an earlier call put them there). The result is overwritten
// by the next Step; Solution returns a durable copy.
func (e *Engine) Usage() *flow.Usage {
	if !e.forecasted {
		flow.EvaluateInto(e.u, e.R)
		e.forecasted = true
	}
	return e.u
}

// Stationarity evaluates Theorem 2's conditions (CheckStationarity) at
// the current routing on the engine's workspaces, allocating nothing.
// The forecast it needs is kept for the next Step.
func (e *Engine) Stationarity() StationarityReport {
	return e.arena.stationarity(e.Usage())
}

// Step executes one full iteration — forecast, marginal-cost wave with
// tagging, routing update — and returns the pre-update measurements.
// Under Config.Backtrack the update is a proposal: it is kept only if
// it does not raise the cost, and η adapts either way. All iteration
// state lives in workspaces allocated at construction, so the
// steady-state step performs no heap allocation.
func (e *Engine) Step() StepInfo {
	u := e.Usage()
	info := e.measure(u)

	next := e.spare
	mu := 0.0
	if e.heavy {
		mu = e.cfg.Momentum
	}
	e.arena.runWave(u, e.eta, mu, !e.cfg.DisableBlocking, next)
	e.carried = false
	if e.cfg.Backtrack {
		e.backtrack(next, info.Cost)
	} else {
		e.accept(next)
		e.forecasted = false
	}
	// Forecast wave mirrors the marginal wave downstream: same message
	// count, same depth.
	e.stats.Messages += 2 * e.arena.messages
	e.stats.Rounds += 2 * e.arena.rounds
	e.stats.Iterations++
	return info
}

// backtrack forecasts the proposed routing next into the engine's one
// usage workspace, evaluates it in one node pass (evaluate),
// and keeps it only if it does not raise cost, the cost at the current
// routing; η grows after a run of kept steps and halves on a rejected
// one. A kept proposal keeps its forecast and its evaluation — cost,
// feasibility, node prices — so the next Step computes none of them
// again; a rejected one leaves the workspace and the prices holding a
// routing the engine does not have, and the next Step forecasts and
// prices the current routing again and steps it without momentum (a
// rejection restarts the heavy-ball history). One forecast and one node
// pass per accepted step, and a second workspace saved for the price of
// one extra forecast per rejection.
func (e *Engine) backtrack(next *flow.Routing, cost float64) {
	flow.EvaluateInto(e.u, next)
	proposed, feasible := evaluate(e.u, e.arena.price)
	if proposed <= cost+1e-12 {
		e.accept(next)
		e.carried, e.cost, e.feasible = true, proposed, feasible
		e.descents++
		if e.descents >= growAfter {
			e.descents = 0
			if grown := e.eta * etaGrow; grown <= etaMax {
				e.eta = grown
			}
		}
	} else {
		e.forecasted, e.heavy = false, false
		e.backtracks++
		e.descents = 0
		if shrunk := e.eta * etaShrink; shrunk >= etaMin {
			e.eta = shrunk
		}
	}
}

// accept makes the proposal next the engine's routing, and the one it
// replaces the spare: the heavy-ball φ_{k−1} of the next step.
func (e *Engine) accept(next *flow.Routing) {
	e.spare, e.R = e.R, next
	e.heavy = e.cfg.Momentum > 0
}

// measure reads the StepInfo of the routing u holds and leaves its
// node prices in the arena for the wave: from the carried evaluation
// when there is one, from one evaluate pass otherwise.
func (e *Engine) measure(u *flow.Usage) StepInfo {
	for j := range e.admitted {
		e.admitted[j] = u.AdmittedRate(j)
	}
	if !e.carried {
		e.cost, e.feasible = evaluate(u, e.arena.price)
	}
	return StepInfo{
		Iteration: e.stats.Iterations,
		Utility:   u.Utility(),
		Cost:      e.cost,
		Admitted:  e.admitted,
		Feasible:  e.feasible,
	}
}

// ErrDiverged is returned by Run when the iteration has genuinely
// diverged — η too large for the instance (§5's "danger of no
// convergence").
var ErrDiverged = errors.New("gradient: iteration diverged; reduce eta")

// DivergenceDetector distinguishes real divergence from the transient
// capacity overshoots the barrier recovers from. A single iteration
// with f_i ≥ C_i makes the cost +Inf, but the clamped barrier
// derivative (DESIGN.md §6) immediately pushes the flow back out;
// only a *sustained* non-finite cost, or NaN anywhere, is divergence.
type DivergenceDetector struct {
	nonFinite int
}

// nonFiniteLimit is how many consecutive +Inf-cost iterations count as
// divergence rather than a recoverable overshoot.
const nonFiniteLimit = 100

// Observe inspects one StepInfo and reports ErrDiverged when the
// trajectory is beyond recovery.
func (d *DivergenceDetector) Observe(info StepInfo) error {
	if math.IsNaN(info.Cost) || math.IsNaN(info.Utility) {
		return fmt.Errorf("%w: NaN at iteration %d", ErrDiverged, info.Iteration)
	}
	if math.IsInf(info.Cost, 0) {
		d.nonFinite++
		if d.nonFinite >= nonFiniteLimit {
			return fmt.Errorf("%w: cost non-finite for %d iterations (at %d)",
				ErrDiverged, d.nonFinite, info.Iteration)
		}
		return nil
	}
	d.nonFinite = 0
	return nil
}

// Run executes up to maxIters iterations, appending one StepInfo per
// iteration to the returned trace. It stops early when stop (if
// non-nil) returns true for the latest StepInfo.
func (e *Engine) Run(maxIters int, stop func(StepInfo) bool) ([]StepInfo, error) {
	trace := make([]StepInfo, 0, maxIters)
	var det DivergenceDetector
	for i := 0; i < maxIters; i++ {
		info := e.Step()
		info.Admitted = append([]float64(nil), info.Admitted...)
		trace = append(trace, info)
		if err := det.Observe(info); err != nil {
			return trace, err
		}
		if stop != nil && stop(info) {
			break
		}
	}
	return trace, nil
}

// RunToTarget iterates until the measured utility reaches the given
// fraction of target (e.g. 0.95 × the LP optimum, the paper's
// convergence criterion in §6), or maxIters. It returns the trace and
// the first iteration index reaching the target (-1 if never).
func (e *Engine) RunToTarget(target, fraction float64, maxIters int) ([]StepInfo, int, error) {
	hit := -1
	trace, err := e.Run(maxIters, func(info StepInfo) bool {
		if hit < 0 && info.Utility >= fraction*target {
			hit = info.Iteration
		}
		return hit >= 0
	})
	return trace, hit, err
}

// Solution evaluates the current routing set.
func (e *Engine) Solution() *flow.Usage { return flow.Evaluate(e.R) }
