package shard

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/transform"
)

// Config tunes a sharded solve. A zero solver knob takes the default
// noted beside it; these are the admission server's solver defaults,
// kept here alone. Shards below 1 means 1.
type Config struct {
	// Shards is the number of solver shards commodities are partitioned
	// across.
	Shards int
	// Salt seeds the consistent-hash commodity→shard placement; a
	// recorded (Shards, Salt) pair replays to the identical partition.
	Salt uint64

	// Solver knobs: the one home of the serving defaults, which
	// server.Options passes through. The barrier is the reciprocal one.
	Epsilon       float64 // barrier coefficient ε; 0 → 0.2
	Eta           float64 // step scale η; 0 → 0.04
	MaxIters      int     // per-solve budget, summed over shards; 0 → 4000
	StationaryTol float64 // Theorem-2 tolerance; 0 → 1e-3, <0 disables
	// Deprecated: ignored. Each shard engine runs its waves on the
	// caller's goroutine. Only bench/trace.go's shard pass sets it.
	Workers int

	// Serving selects the step mode the admission server runs by
	// default; false keeps the paper's: fixed η, the loop-freedom tags,
	// and a warm start that carries φ as it is and only onto an
	// identically shaped problem. A serving engine backtracks
	// (gradient.Config.Backtrack) and keeps the η it has learned from one
	// decision to the next, runs without the tags (member subgraphs are
	// DAGs), and warm-starts in rate space: a new offered rate moves only
	// the commodity's dummy split (flow.Routing.HoldAdmitted), and a
	// shard rebuilt for an arrival or a departure keeps the routing of
	// every commodity it continues (gradient.Carry) instead of starting
	// all of them cold.
	Serving bool
	// Momentum is a serving engine's heavy-ball coefficient μ
	// (gradient.Config.Momentum): 0 → ServingMomentum, <0 off; the paper
	// mode ignores it. Each bind restarts it, since a restarted or new
	// engine has no last step; a turn start does not.
	Momentum float64

	// Recorder receives the streamopt_shard_* metrics. Nil disables.
	Recorder *obs.Recorder
	// Logf receives warm-start fallback and divergence diagnostics.
	// Nil discards.
	Logf func(format string, args ...any)
}

// ServingMomentum is the serving step's heavy-ball coefficient. It cuts
// the iterations a cold J=10k engine needs to reach Theorem 2's
// tolerance by about two thirds (EXPERIMENTS.md).
const ServingMomentum = 0.9

func (c *Config) setDefaults() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.2
	}
	if c.Eta <= 0 {
		c.Eta = 0.04
	}
	if c.Momentum == 0 {
		c.Momentum = ServingMomentum
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 4000
	}
	if c.StationaryTol == 0 {
		c.StationaryTol = 1e-3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Result is the outcome of one sharded solve.
type Result struct {
	// Utility is Σ_j U_j(a_j) over all shards.
	Utility float64
	// Iterations is the total gradient iterations across shards this
	// solve, at most Config.MaxIters; Rounds the sweeps in which every
	// shard took one turn.
	Iterations int
	Rounds     int
	// Converged means every shard reached Theorem-2 stationarity and
	// the external-usage exchange settled within tolerance.
	Converged bool
	// Drained reports a solve cut short by shutdown.
	Drained bool
	// Feasible is f_i ≤ C_i at the merged global usage.
	Feasible bool
	// Err is the first shard divergence observed, if any.
	Err error
}

// Coordinator owns N solver shards and has them take turns on the one
// objective they share: each shard steps its own commodities against
// the exact usage of all the others. With one shard it is the plain
// unsharded solver: external usage stays zero, and a turn is a
// stationarity check followed, unless it holds, by exchangeEvery
// gradient iterations. It is not safe for concurrent use; the admission
// server drives it from its single solver goroutine.
type Coordinator struct {
	cfg     Config
	p       *stream.Problem
	runners []*runner
	changed []*runner // changed by the last Build's problem, awaiting Bind
	merged  []float64 // shared-prefix usage; nil until the first Build
}

// runner is one solver shard: its own subset transform and engine (the
// engine owns the usage workspace).
type runner struct {
	id  int
	cfg *Config

	x   *transform.Extended
	eng *gradient.Engine
	// rebuildOnly turns the reparameterizing path off; tests set it to
	// compare that path against a full rebuild.
	rebuildOnly bool
	// global[j] is local commodity j's index in the applied problem's
	// commodity list, ascending; results stitch back through it.
	global []int

	// next is what the last build left for bind: a rebuilt extended
	// problem, or nil when x only needs reparameterizing to p.
	next *transform.Extended

	ext []float64 // the other shards' usage, installed on eng (Engine.SetExternal)
	// own is the shared usage after the shard's last turn. It is a copy,
	// not a read of the engine, because a parameter-only rebind changes
	// the engine's flows and the other shards must see the pre-change
	// usage until this shard's own turn.
	own []float64

	iters      int // iterations this solve
	det        gradient.DivergenceDetector
	stationary bool
	extMoved   bool
	diverged   bool
	divergeErr error
	seconds    float64
}

// New creates a coordinator with empty shards; Apply installs the first
// problem.
func New(cfg Config) *Coordinator {
	cfg.setDefaults()
	c := &Coordinator{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		c.runners = append(c.runners, &runner{id: i, cfg: &c.cfg})
	}
	return c
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.cfg.Shards }

// Config returns the configuration the coordinator runs with, its
// defaults filled in.
func (c *Coordinator) Config() Config { return c.cfg }

// Clear drops every shard's engine and subset — the zero-commodity
// state. The next Apply rebuilds every shard it examines.
func (c *Coordinator) Clear(p *stream.Problem) {
	c.p = p
	for _, r := range c.runners {
		r.x, r.eng = nil, nil
		r.global = nil
		clear(r.own)
		clear(r.ext)
		r.stationary = true
		r.diverged, r.divergeErr = false, nil
	}
	clear(c.merged)
}

// Apply installs a new desired problem and brings every shard it
// changes up to it. dirty[i] false promises that shard i is unchanged and
// spares it the comparison; nil examines every shard. It returns whether
// every changed shard kept or warm-started from its previous routing.
// Unchanged shards keep their engines and warm state untouched. Apply is
// Build followed by Bind; the server calls the two itself to time them
// and to see an unexpected warm-start fallback.
//
// What a shard costs depends on what moved, found by comparing p with
// what the shard's extended problem was built from
// (transform.Extended.Changes), never from the name of a mutation: a
// shard handed the very commodities and network vectors it has is left
// alone; offered rates, utilities, capacities and bandwidths are written
// into the extended problem in place and the engine keeps its routing
// and workspaces; an arrival, a departure or a commodity with a
// different subgraph runs the subset transform again. The last two are
// indistinguishable from outside but for their cost. A problem handed to
// Build must not be edited afterwards — a changed problem is a new
// value, as stream.NewVersion and Clone both make it.
func (c *Coordinator) Apply(p *stream.Problem, dirty []bool) (warm bool, err error) {
	if err := c.Build(p, dirty); err != nil {
		return false, err
	}
	warm, _ = c.Bind() // an unexpected fallback is logged; Bind's caller decides the rest
	return warm, nil
}

// Build is Apply's first phase: it places p's commodities and, shard by
// shard, finds what p changes and validates the parameters that moved or
// runs the subset transform. Engines and the extended problems they run
// on are untouched until Bind.
func (c *Coordinator) Build(p *stream.Problem, dirty []bool) error {
	c.p = p
	n := len(c.runners)
	subsets := make([][]int, n)
	for i := range subsets {
		subsets[i] = make([]int, 0, len(p.Commodities)/n+1)
	}
	for gi := range p.Commodities {
		s := Place(p.Commodities[gi].Name, c.cfg.Salt, n)
		subsets[s] = append(subsets[s], gi)
	}
	c.changed = c.changed[:0]
	for i, r := range c.runners {
		// Unchanged shards take the fresh indices too: an arrival or
		// departure on another shard shifts the global position of
		// commodities this one owns without touching its engine.
		r.global = subsets[i]
		if i < len(dirty) && !dirty[i] {
			continue
		}
		changed, err := r.build(p)
		if err != nil {
			c.changed = c.changed[:0]
			return err
		}
		if changed {
			c.changed = append(c.changed, r)
		}
	}
	if c.merged == nil && len(c.changed) > 0 {
		c.merged = make([]float64, c.changed[0].next.SharedNodes)
	}
	return nil
}

// Bind is Apply's second phase. A shard whose parameters alone moved has
// them installed and its engine restarted on the routing it holds. A
// shard Build rebuilt gets an engine on its new extended problem,
// warm-started from its previous routing when the subset topology allows
// it (the paper mode) or when it continues at least one of its
// commodities (the serving mode), and cold otherwise. fallback is the
// first warm start that failed for any other reason — already recovered
// by starting cold, returned so the caller can capture it.
func (c *Coordinator) Bind() (warm bool, fallback error) {
	warm = true
	for _, r := range c.changed {
		w, err := r.bind(c.p)
		warm = warm && w
		if fallback == nil {
			fallback = err
		}
	}
	c.changed = c.changed[:0]
	return warm, fallback
}

// build prepares the shard's extended problem over its commodities in
// p and reports whether bind has anything to do: nothing when p changes
// none of it, nothing but the validation Build would have run when it
// differs in parameters alone, a new one otherwise.
func (r *runner) build(p *stream.Problem) (changed bool, err error) {
	r.next = nil
	if r.x != nil {
		change, err := r.x.Changes(p, r.global)
		switch {
		case change == transform.Unchanged:
			return false, nil
		case change == transform.Parameters && !r.rebuildOnly:
			return true, err
		}
	}
	if r.next, err = transform.Build(p, transform.Options{
		Epsilon:     r.cfg.Epsilon,
		Commodities: r.global,
	}); err != nil {
		return false, err
	}
	r.cfg.Recorder.BuildFootprint(r.id, r.next.BuildBytes())
	return true, nil
}

// newFrom and carry are gradient.NewFrom and gradient.Carry, the warm
// starts of the paper and the serving mode; variables so tests can force
// the warm-start failure paths.
var newFrom, carry = gradient.NewFrom, gradient.Carry

// bind brings the shard's engine up to p: on the extended problem it
// has, reparameterized, when build left it at that, else on the one
// build produced. It reports whether the shard kept or warm-started
// from its routing, and an unexpected warm-start failure it recovered
// from by starting cold.
func (r *runner) bind(p *stream.Problem) (warm bool, fallback error) {
	r.diverged, r.divergeErr = false, nil
	if r.next == nil {
		if r.cfg.Serving && r.eng != nil {
			// Before Reparameterize overwrites the rates they move from.
			for j, gi := range r.global {
				r.eng.Routing().HoldAdmitted(j, r.x.Commodities[j].MaxRate, p.Commodities[gi].MaxRate)
			}
		}
		r.x.Reparameterize(p, r.global)
		if r.eng != nil {
			r.eng.Restart()
			r.stationary = false
		}
		return true, nil
	}
	x := r.next
	r.next = nil
	if r.ext == nil {
		r.ext = make([]float64, x.SharedNodes)
		r.own = make([]float64, x.SharedNodes)
	}
	r.x = x

	if len(x.Commodities) == 0 {
		r.eng = nil
		clear(r.own)
		r.stationary = true
		return true, nil
	}

	// Engines step unobserved: what a solve reports is the
	// coordinator's per-turn ShardAdvance and per-sweep PriceExchange.
	gcfg := gradient.Config{Eta: r.cfg.Eta}
	warmStart := newFrom
	if r.cfg.Serving {
		gcfg.Backtrack, gcfg.DisableBlocking = true, true
		gcfg.Momentum = max(r.cfg.Momentum, 0)
		warmStart = carry
	}
	if r.eng != nil {
		// A warm start goes on at the step scale the last engine reached
		// (with a fixed η, the one configured); a cold one begins at
		// Config.Eta.
		wcfg := gcfg
		wcfg.Eta = r.eng.Eta()
		eng, err := warmStart(x, r.eng.Routing(), wcfg)
		switch {
		case err == nil:
			r.eng, warm = eng, true
		case errors.Is(err, flow.ErrTopologyChanged):
			// The previous routing's shape no longer fits the rebuilt
			// problem (membership changed): starting cold is the
			// expected recovery.
			r.cfg.Logf("shard %d: cold start (expected): %v", r.id, err)
		default:
			r.cfg.Logf("shard %d: warm start failed unexpectedly, falling back to cold: %v", r.id, err)
			fallback = err
		}
	}
	if !warm {
		r.eng = gradient.New(x, gcfg)
	}
	r.eng.SetExternal(r.ext)
	r.stationary = false
	return warm, fallback
}

// exchangeEvery is how many gradient iterations a shard's turn runs at
// most: its external usage is fixed for that long, and with one shard it
// is how often a solve tests for stationarity.
const exchangeEvery = 25

// Solve has the shards take turns until every shard is stationary and
// the external usage has settled, the solve's iteration budget
// (Config.MaxIters, summed over shards) is spent, or ctx is cancelled
// (drain). In a turn one shard steps against the exact usage of all the
// others; its usage is then merged and installed as external usage on
// every shard before the next one moves. That is block coordinate
// descent on the one objective every shard's engine descends, and
// sequential in fixed shard order, so a given (shard state, mutation
// batch) always produces the identical trajectory — the property replay
// verification depends on.
func (c *Coordinator) Solve(ctx context.Context) Result {
	res := Result{}
	for _, r := range c.runners {
		r.iters = 0
		r.seconds = 0
		r.det = gradient.DivergenceDetector{}
		if r.diverged {
			// Every solve retries a previously diverged shard with a
			// fresh detector.
			r.diverged = false
			r.stationary = false
		}
	}
	var anyX *transform.Extended
	for _, r := range c.runners {
		if r.x != nil {
			anyX = r.x
			break
		}
	}
	if anyX == nil {
		res.Converged, res.Feasible = true, true
		return res
	}

	spent := 0
	for ctx.Err() == nil {
		// A sweep that steps spends budget; one that does not leaves every
		// shard's usage, and so every installed external usage, as it was,
		// and ends the solve. No round cap is needed.
		stepped, moved, maxDelta := false, false, 0.0
		for _, r := range c.runners {
			n := r.advance(ctx, min(exchangeEvery, c.cfg.MaxIters-spent))
			spent += n
			stepped = stepped || n > 0
			c.cfg.Recorder.ShardAdvance(r.id, r.seconds, r.iters, len(r.global), n > 0)
			c.merge()
			m, d := c.updateExternals(anyX)
			moved = moved || m
			maxDelta = max(maxDelta, d)
		}
		res.Rounds++
		c.cfg.Recorder.PriceExchange(maxDelta)

		allStationary, anyDiverged := true, false
		for _, r := range c.runners {
			if r.diverged {
				anyDiverged = true
			} else if r.eng != nil && !r.stationary {
				allStationary = false
			}
		}
		if anyDiverged && res.Err == nil {
			for _, r := range c.runners {
				if r.divergeErr != nil {
					res.Err = r.divergeErr
					break
				}
			}
		}
		if allStationary && !moved {
			res.Converged = !anyDiverged
			break
		}
		if !stepped && !moved {
			break // budget spent and external usage settled
		}
	}

	res.Drained = !res.Converged && ctx.Err() != nil

	for _, r := range c.runners {
		res.Iterations += r.iters
		if r.eng != nil {
			res.Utility += r.eng.Usage().Utility()
		}
	}
	res.Feasible, _ = flow.FeasibleShared(anyX, c.merged)
	return res
}

// advance is one timed turn of the shard: step with at most n
// iterations. It returns the iterations run.
func (r *runner) advance(ctx context.Context, n int) int {
	start := time.Now()
	n = r.step(ctx, n)
	r.seconds += time.Since(start).Seconds()
	return n
}

// step is one Engine.Run of at most n gradient iterations against the
// shard's current external-usage vector, refreshing its usage summary.
// Run checks Theorem 2 before the first step, so a solve that begins
// stationary costs no iteration and a turn after the budget is spent
// still learns whether the shard is stationary; the runner's detector
// carries its streak across a solve's turns. A shard that is already
// stationary and whose external usage has not moved since skips
// entirely. The flows are forecast once per routing: the engine keeps
// the evaluation this step ends on for the check the next one starts
// with (FNode does not depend on ext; a rebuild installs a new engine
// and with it a new forecast). What does depend on ext — the cost,
// feasibility and node prices the engine carries from its last
// accepted step — is dropped first, by installing ext again:
// updateExternals rewrites it after every turn, by however little.
func (r *runner) step(ctx context.Context, n int) int {
	if r.eng == nil || r.diverged {
		return 0
	}
	r.eng.SetExternal(r.ext)
	if r.stationary && !r.extMoved {
		return 0
	}
	r.extMoved = false
	iters, stationary, err := r.eng.Run(ctx, n, r.cfg.StationaryTol, &r.det, nil)
	r.iters += iters
	r.stationary = stationary
	if err != nil {
		r.diverged, r.divergeErr = true, err
		r.cfg.Logf("shard %d: solve diverged: %v", r.id, err)
	}
	r.capture()
	return iters
}

// capture refreshes the runner's shared-prefix usage from the engine's
// evaluation of its current routing. Dummy-node flow is shard-private
// and uncapacitated, so it never crosses the boundary.
func (r *runner) capture() { copy(r.own, r.eng.Usage().FNode[:r.x.SharedNodes]) }

// merge folds the per-shard shared-prefix usage into the global
// congestion view, in fixed shard order for a deterministic reduction.
func (c *Coordinator) merge() {
	clear(c.merged)
	for _, r := range c.runners {
		for i, v := range r.own {
			c.merged[i] += v
		}
	}
}

// usageTol is the relative per-node settle tolerance on external usage:
// a sweep whose updates all fall below usageTol·max(1, C_i) counts as
// settled.
const usageTol = 1e-4

// updateExternals installs the exact external usage ext_s = max(0,
// F − own_s) on every shard and reports whether any per-node change
// exceeded the settle tolerance (relative to the node's capacity scale),
// and the largest such change.
func (c *Coordinator) updateExternals(anyX *transform.Extended) (moved bool, maxDelta float64) {
	for _, r := range c.runners {
		if r.ext == nil {
			continue
		}
		shardMax := 0.0
		for i := range r.ext {
			target := c.merged[i] - r.own[i]
			if target < 0 {
				target = 0
			}
			d := target - r.ext[i]
			r.ext[i] = target
			scale := 1.0
			if cc := anyX.Capacity[i]; cc > 1 && !isInf(cc) {
				scale = cc
			}
			if rel := abs(d) / scale; rel > shardMax {
				shardMax = rel
			}
		}
		if shardMax > maxDelta {
			maxDelta = shardMax
		}
		if shardMax > usageTol {
			r.extMoved = true
			moved = true
		}
	}
	return moved, maxDelta
}

// UsageReport maps the merged global usage back onto the original
// network.
func (c *Coordinator) UsageReport() []core.NodeUsage {
	for _, r := range c.runners {
		if r.x != nil {
			return core.UsageReportShared(c.p, r.x, c.merged)
		}
	}
	return nil
}

// Explain writes every shard's bottleneck attribution straight into one
// slice in global commodity order. Each shard attributes in its
// engine's own workspaces under its external usage, so its marginals
// and loads count the merged operating point. The usage is installed
// again first: updateExternals rewrites it after every turn, and the
// engine's carried prices may predate the last rewrite. Entry gi's
// name, offered rate, admitted rate and utility are commodity gi's
// admission outcome in the problem last applied: the one per-commodity
// read of a solve.
func (c *Coordinator) Explain() []core.CommodityExplain {
	if c.p == nil {
		return nil
	}
	parts := make([]core.ExplainPart, 0, len(c.runners))
	for _, r := range c.runners {
		if r.eng != nil {
			r.eng.SetExternal(r.ext)
			parts = append(parts, core.ExplainPart{X: r.x, A: r.eng.Attributor(), Global: r.global})
		}
	}
	out := make([]core.CommodityExplain, len(c.p.Commodities))
	core.ExplainParts(out, c.p, parts...)
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func isInf(v float64) bool { return v > 1e308 }
