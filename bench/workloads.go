package main

import (
	"time"

	"repro/internal/randnet"
	"repro/internal/server"
	"repro/internal/stream"
)

// workload is one benchmark scenario: a pinned instance, a server
// configuration, and a seeded closed-loop mutation script.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json and the README

	// instance generates the problem. Its seed is pinned, not taken
	// from -seed: the driver compares runs across seeds, and iteration
	// counts, utility and heap all follow the instance. -seed draws the
	// mutation script.
	instance func() (*stream.Problem, error)
	options  server.Options
	http     bool // mutations over loopback HTTP instead of in-process
	journal  bool // flight recorder on
	// boots is how many times a run boots the server for setup_s: at
	// least 3, more where a boot is cheap.
	boots int

	steps func(g *scriptGen, decisions int) ([]step, error)
	// perSecond sizes the script from -seconds: decisions =
	// perSecond × seconds, at least min, rounded up to a multiple of
	// period (which keeps capacity faults paired and cycles whole).
	perSecond float64
	min       int
	period    int
	// coalesced means every decision must publish exactly one
	// generation however many calls it made.
	coalesced bool
}

// script draws the workload's script for a seed.
func (w *workload) script(inst *stream.Problem, seed int64, decisions int) (*script, error) {
	g := newScriptGen(inst, seed)
	steps, err := w.steps(g, decisions)
	if err != nil {
		return nil, err
	}
	return finish(steps), nil
}

// decisions is the script length for a run of the given nominal length.
func (w *workload) decisions(seconds int) int {
	n := int(w.perSecond*float64(seconds) + 0.5)
	if n < w.min {
		n = w.min
	}
	return (n + w.period - 1) / w.period * w.period
}

// scaleSolver is the CI scale-smoke job's solver setting for the sparse
// family: the default η 0.04 diverges there.
func scaleSolver(o server.Options) server.Options {
	o.Eta, o.MaxIters, o.StationaryTol = 0.005, 400, 5e-3
	return o
}

func sparse(commodities int) func() (*stream.Problem, error) {
	return func() (*stream.Problem, error) {
		return randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: commodities})
	}
}

// Workers is 1 everywhere: with Workers = GOMAXPROCS the same J=1k
// script swings 24 % between runs on two shared vCPUs, with one worker
// 5 %. Everything else a workload does not name is the server default.
var base = server.Options{Workers: 1, Logf: func(string, ...any) {}}

var workloads = []*workload{
	{
		name: "paper-churn",
		why:  "the paper's section 6 regime: 3 commodities on 40 nodes, thousands of iterations and a 25 ms debounce per decision, so step control, convergence and cold starts show here, clone/build/journal do not",
		instance: func() (*stream.Problem, error) {
			return randnet.Generate(randnet.Config{Seed: 42, Nodes: 40, Commodities: 3})
		},
		options:   base,
		steps:     churnScript,
		boots:     9,
		perSecond: 10, min: 200, period: 8,
	},
	{
		name:      "sparse1k-http-rates",
		why:       "one warm full re-solve per 4 single-commodity PATCHes at J=1000 over loopback HTTP: Engine.Step dominates, then clone, transform.Build, snapshot assembly and the HTTP layer",
		instance:  sparse(1000),
		options:   scaleSolver(base),
		http:      true,
		boots:     5,
		steps:     ratesScript,
		perSecond: 3.2, min: 64, period: 16,
	},
	{
		name:      "sparse1k-burst-journal",
		why:       "256 journaled single calls coalesced into one solve, every 4th round one batch call: 256 O(J) clones and appends plus a checkpoint per decision against one clone for the batch",
		instance:  sparse(1000),
		options:   burstOptions(),
		journal:   true,
		boots:     3,
		steps:     burstScript,
		perSecond: 2, min: 40, period: 4,
		coalesced: true,
	},
	{
		name:      "sparse10k-sharded",
		why:       "the headline scale, J=10000 on 4 shards: the only workload where shard Apply/Solve, price exchange, the O(J) clone and snapshot assembly carry weight",
		instance:  sparse(10000),
		options:   shardedOptions(),
		boots:     3,
		steps:     shardedScript,
		perSecond: 0.6, min: 12, period: 6,
	},
}

// burstOptions widens the debounce to 100 ms: coalescing is exact only
// while no gap between two calls of a burst outlasts the quiet window,
// and the default 25 ms is about what the periodic checkpoint inside
// every 256th call takes.
func burstOptions() server.Options {
	o := scaleSolver(base)
	o.Debounce = 100 * time.Millisecond
	return o
}

// shardedOptions lowers η to 0.002. At the scale-smoke job's 0.005 the
// four shards never settle under mutation: utility jumps between 32 and
// 140 from one snapshot to the next and 6 to 9 in 10 are infeasible, so
// no number taken there repeats across seeds. At 0.002 every snapshot is
// feasible and utility holds within 1 %.
func shardedOptions() server.Options {
	o := scaleSolver(base)
	o.Eta = 0.002
	o.Shards, o.PlacementSalt = 4, 7
	return o
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
