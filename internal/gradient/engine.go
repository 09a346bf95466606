package gradient

import (
	"context"
	"errors"
	"fmt"
	"math"

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
	// it (shard.Config.Serving); the blocking tests ablate it. It also
	// turns on the screened step (screen.go): a row Γ would return bit
	// for bit is not swept, and the trajectory stays the unscreened one.
	DisableBlocking bool
	// Deprecated: ignored. Each commodity's §5 pass runs inline on the
	// caller's goroutine. Only bench/trace.go's mirror pass sets it.
	Workers int
}

func (c *Config) setDefaults() {
	if c.Eta <= 0 {
		c.Eta = 0.04
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
	Feasible  bool    // f_i ≤ C_i at every node
}

// Engine runs the gradient-based algorithm synchronously.
type Engine struct {
	X   *transform.Extended
	R   *flow.Routing
	cfg Config

	// Iteration workspaces, allocated once: the evaluated usage (current
	// for R while forecasted is set), the spare routing Step swaps with R
	// (double-buffering in place of the old per-step Clone; it equals R
	// at every entry Γ does not write), and the wave arena.
	u          *flow.Usage
	forecasted bool
	spare      *flow.Routing
	arena      *arena

	// The measures of R, while measured is set: a_j per commodity,
	// Σ_j U_j(a_j), and the utility loss Y. They depend on the routing
	// and on the commodities, not on the external usage (SetExternal).
	// The wave measures its proposal into spareAdmitted, which accept
	// swaps in; the screen reads both.
	measured      bool
	admitted      []float64
	spareAdmitted []float64
	utility, loss float64

	// The carried evaluation: while carried is set, cost and feasible
	// are A and f ≤ C of the usage in u, and arena.price holds its node
	// prices, all under the external usage installed when they were
	// made. One node pass (evaluate) makes them: after an accepted
	// backtracking step, which has to judge its proposal anyway, or in
	// the first Step, Stationarity or Attributor call that finds them
	// missing.
	// carried implies forecasted and measured.
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
	a := newArena(x, cfg.DisableBlocking)
	if !cfg.DisableBlocking {
		a.scratch.tagged = make([]bool, len(a.scratch.rho))
	}
	if cfg.Momentum > 0 {
		a.scratch.prev = make([]float64, len(a.scratch.linkD))
	}
	return &Engine{
		X: x, R: r, cfg: cfg, eta: cfg.Eta,
		u:             flow.NewUsage(x),
		spare:         r.Clone(),
		arena:         a,
		admitted:      make([]float64, x.NumCommodities()),
		spareAdmitted: make([]float64, x.NumCommodities()),
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
// routing carries over, its forecast and its measures under the old
// parameters are dropped, the counters start again and so does
// Backtrack's run of descents, but the step scale stays where step
// control has moved it.
// The momentum resets too: the last step was taken under the old
// parameters, and so does the screen: the next step sweeps every row.
// The trajectory from here is the one a rebuilt, rebound engine started
// at that η would take, bit for bit, in both step modes.
func (e *Engine) Restart() {
	e.forecasted, e.measured, e.carried, e.heavy = false, false, false, false
	e.descents, e.backtracks = 0, 0
	e.stats = Stats{}
	e.arena.unscreen()
}

// SetExternal installs ext as the flow other shards route through each
// shared node: every cost, feasibility test and node price the engine
// takes from here on is at its own flow plus ext. ext is retained, not
// copied, and may be shorter than X.SharedNodes (nil is none), so a
// coordinator installs one vector per shard and rewrites it in place
// between turns, calling SetExternal again before the next Step. The
// flows of the routing stand, and so do its admitted rates, utility and
// utility loss — none depends on ext — but the cost, feasibility and
// node prices the engine carried were taken at the old global operating
// point and are dropped: the next Step, Stationarity or Attributor
// makes one node pass, nothing more. That pass adds the price change to the screen's
// drift, so the screen needs no reset. The momentum is kept: the
// routing's last step is still its last step, and a coordinator's turns
// would otherwise restart it every 25 iterations.
func (e *Engine) SetExternal(ext []float64) {
	e.arena.ext = ext
	e.carried = false
}

// Stats returns protocol accounting accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// Eta reports the current step scale: Config.Eta, or wherever
// backtracking has moved it.
func (e *Engine) Eta() float64 { return e.eta }

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

// Stationarity returns the full eq.-12 gap (CheckStationarity) at the
// current routing, computed on the engine's workspaces, allocating
// nothing. The forecast and the evaluation it needs are kept for the
// next Step.
func (e *Engine) Stationarity() float64 {
	e.measure()
	return e.arena.stationarity(e.u, math.Inf(1))
}

// Attributor explains the current routing's commodities
// (Attributor.Attribute) in the engine's own workspaces, priced by the
// node pass the next Step would make, under the external usage last
// installed (SetExternal): no allocation, and the trajectory does not
// move. It is valid until the next Step, SetExternal or Restart.
func (e *Engine) Attributor() Attributor {
	e.measure()
	return Attributor{u: e.u, a: e.arena}
}

// measure brings the engine's view of R up to date: the forecast in u,
// the measures, and the node pass — cost, feasibility, node prices —
// each only when it is missing.
func (e *Engine) measure() {
	u := e.Usage()
	if !e.measured {
		e.utility, e.loss = 0, 0
		for j := range e.admitted {
			uj, yj := measureRow(u, e.R, j, e.admitted)
			e.utility, e.loss = e.utility+uj, e.loss+yj
		}
		e.measured = true
	}
	if !e.carried {
		e.cost, e.feasible = e.arena.evaluate(u, e.loss)
		e.carried = true
	}
}

// Step executes one full iteration — the marginal-cost wave with
// tagging, the routing update and the flow forecast of its result, per
// commodity — and returns the measurements of the routing it started
// from. Under Config.Backtrack the update is a proposal: it is kept
// only if it does not raise the cost, and η adapts either way. All
// iteration state lives in workspaces allocated at construction, so
// the steady-state step performs no heap allocation.
func (e *Engine) Step() StepInfo {
	e.measure()
	info := StepInfo{
		Iteration: e.stats.Iterations,
		Utility:   e.utility,
		Cost:      e.cost,
		Feasible:  e.feasible,
	}

	next := e.spare
	mu := 0.0
	if e.heavy {
		mu = e.cfg.Momentum
	}
	utility, loss := e.arena.runWave(e.u, e.eta, mu, !e.cfg.DisableBlocking, next, e.admitted, e.spareAdmitted)
	e.carried = false
	if e.cfg.Backtrack {
		e.backtrack(next, utility, loss, info.Cost)
	} else {
		e.accept(next, utility, loss)
	}
	// Forecast wave mirrors the marginal wave downstream: same message
	// count, same depth.
	e.stats.Messages += 2 * e.arena.messages
	e.stats.Rounds += 2 * e.arena.rounds
	e.stats.Iterations++
	return info
}

// backtrack judges the proposed routing next, which the wave has left
// forecast in the engine's one usage workspace with its utility and
// utility loss, in one node pass (evaluate), and keeps it only if it
// does not raise cost, the cost at the current routing; η grows after
// a run of kept steps and halves on a rejected one. A kept proposal
// keeps its forecast, its measures and its evaluation — cost,
// feasibility, node prices — so the next Step computes none of them
// again. A rejected one leaves the workspace and the prices holding a
// routing the engine does not have: the next Step forecasts the current
// routing again and makes one node pass (its measures stand), and steps
// it without momentum (a rejection restarts the heavy-ball history).
// One forecast and one node pass per accepted step, and a second
// workspace saved for the price of one extra forecast per rejection.
func (e *Engine) backtrack(next *flow.Routing, utility, loss, cost float64) {
	proposed, feasible := e.arena.evaluate(e.u, loss)
	if proposed <= cost+1e-12 {
		e.accept(next, utility, loss)
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

// accept makes the proposal next, forecast in u with the given
// measures, the engine's routing, and the one it replaces the spare:
// the heavy-ball φ_{k−1} of the next step.
func (e *Engine) accept(next *flow.Routing, utility, loss float64) {
	e.spare, e.R = e.R, next
	e.admitted, e.spareAdmitted = e.spareAdmitted, e.admitted
	e.utility, e.loss = utility, loss
	e.forecasted, e.measured = true, true
	e.heavy = e.cfg.Momentum > 0
}

// ErrDiverged is what a DivergenceDetector reports, and Run returns,
// when the iteration has genuinely diverged — η too large for the
// instance (§5's "danger of no convergence").
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

// Run is the one loop that steps the engine to a stop. When tol > 0 it
// checks Theorem 2 (Stationarity ≤ tol) once, before the first step,
// even when budget is 0; a caller that wants a check cadence runs its
// budget in chunks, one Run each. Each step runs ctx, Step, det.Observe
// (when det is non-nil), then observe (when non-nil). The run stops at
// the first of a passing check, budget steps, a done ctx, an error
// from det, or observe returning true. It returns the steps run,
// whether the check passed, and det's error; a done ctx is not an
// error. det is the caller's, so a detector can carry its streak across
// runs; nil turns divergence detection off.
func (e *Engine) Run(ctx context.Context, budget int, tol float64, det *DivergenceDetector, observe func(StepInfo) bool) (steps int, stationary bool, err error) {
	if tol > 0 {
		if e.measure(); e.arena.stationarity(e.u, tol) <= tol {
			return 0, true, nil
		}
	}
	for ; steps < budget && ctx.Err() == nil; steps++ {
		info := e.Step()
		if det != nil {
			if err := det.Observe(info); err != nil {
				return steps + 1, false, err
			}
		}
		if observe != nil && observe(info) {
			return steps + 1, false, nil
		}
	}
	return steps, false, nil
}

// Solution evaluates the current routing set.
func (e *Engine) Solution() *flow.Usage { return flow.Evaluate(e.R) }
