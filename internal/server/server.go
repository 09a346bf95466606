// Package server is the streaming admission service: a long-running
// process that owns the desired stream.Problem, accepts commodity
// arrivals/departures, offered-rate and utility updates, and node/link
// capacity changes (failure injection), and keeps the joint
// admission-control + routing solution converged by re-solving with the
// paper's gradient algorithm — warm-started from the previous routing,
// commodity by commodity across arrivals and departures in the serving
// step mode it runs by default (shard.Config.Serving).
//
// Concurrency model: an installed Problem is immutable, and the desired
// state is a chain of versions of it. A mutation, under a mutex, derives
// the next version from the installed one (stream.Problem.NewVersion: it
// shares the network and every commodity the mutation does not write,
// and copies the struct or vector it does write first), applies itself
// to that, swaps it in and wakes the solver goroutine; nothing ever
// edits a problem once Server.problem points at it, nor anything an
// installed problem shares with its successors. The solver and GET
// /v1/problem therefore take the pointer under the mutex and read the
// problem outside it — later mutations replace the pointer, they never
// alias an in-flight solve or marshal — and a mutation costs what it
// touches plus one pointer per commodity, not a copy of the problem.
// The solver converges and
// publishes an immutable Snapshot through an atomic pointer. Reads are
// lock-free and always see a complete snapshot — never a torn one — even
// while the next solve runs. Bursts of mutations are coalesced by a
// debounce window so N rapid-fire updates cost one re-solve, not N.
package server

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/shard"
	"repro/internal/stream"
)

// Options configures the service. The zero value is usable: paper
// defaults for the solver, a 25 ms debounce window, no observability.
type Options struct {
	// Solver knobs (see core.Options): penalty coefficient ε, step
	// scale η (in the serving mode, where step control starts a cold
	// solve), per-solve iteration budget, and the Theorem-2
	// stationarity tolerance that ends a solve early once the routing
	// is optimal within tolerance.
	Epsilon       float64 // default 0.2
	Eta           float64 // default 0.04
	MaxIters      int     // default 4000
	StationaryTol float64 // default 1e-3; <0 disables early stopping
	// Workers bounds the solver's per-commodity wave pool
	// (gradient.Config.Workers); 0 means GOMAXPROCS.
	Workers int
	// PaperMode solves as §5 states it — fixed η, the loop-freedom tags,
	// φ carried as it is across a decision and a cold start whenever the
	// commodity set changed — instead of in the serving step mode
	// (shard.Config.Serving), which is the default. Journals record the
	// mode and replay boots the one they recorded.
	PaperMode bool
	// momentum is the serving step's heavy-ball coefficient μ
	// (shard.Config.Momentum): 0 means shard.ServingMomentum, <0 off. No
	// caller sets it; SolverOptions restores it from a journal, so a
	// serving run recorded before the step had momentum replays
	// without it.
	momentum float64

	// Shards partitions commodities across that many solver shards
	// that take turns (see internal/shard). Each shard owns its own
	// extended problem and engine and steps only its commodity subset,
	// against the exact usage of the other shards, which the
	// coordinator merges and installs after every turn. MaxIters bounds
	// a solve's iterations summed over shards. Shards ≤ 1 (the default)
	// is the same coordinator with one shard, which owns every commodity
	// and has nobody to exchange with: the plain unsharded solve.
	Shards int
	// PlacementSalt seeds the consistent-hash commodity→shard placement.
	// Recorded in the journal so replay re-boots with the identical
	// partition.
	PlacementSalt uint64

	// Debounce is how long the solver waits after a mutation for more
	// mutations before re-solving; bursts within the window coalesce
	// into one solve. Under a continuous mutation stream the wait stops
	// at 20×Debounce, so the snapshot never goes stale indefinitely.
	// Default 25 ms; <0 disables (solve immediately).
	Debounce time.Duration

	// Recorder streams solve latencies, warm/cold restart counts, the
	// generation counter, the admitted-utility gauge and the per-turn
	// shard series through internal/obs. The solver engines never see it:
	// a solve is observed per shard turn, not per iteration, at every
	// shard count. Nil disables (zero overhead).
	Recorder *obs.Recorder
	// Spans, when non-nil, traces the decision lifecycle: a root
	// "decision" span per accepted mutation (adopting the client's W3C
	// traceparent at HTTP ingress), children covering the coalescing
	// wait and the solve phases, closed at snapshot publish. The ring is
	// served on GET /debug/spans; a tracer built over a Recorder
	// (span.New's emitter) also writes finished spans to its event sink
	// as "span" JSONL records. Nil disables (zero overhead on every
	// path).
	Spans *span.Tracer
	// HistoryCap bounds the generation ring that GET /history and
	// GET /v1/flips read: the last HistoryCap published generations'
	// scalars, admitted rates and admission flips. Default 64; <0
	// disables both views.
	HistoryCap int
	// Logf receives warm-start fallback diagnostics and solve errors.
	// Nil means log.Printf.
	Logf func(format string, args ...any)

	// Journal, when non-nil, is the crash-safe flight recorder the
	// server writes through: a restart checkpoint at boot, one record
	// per accepted mutation, one digest per published snapshot, and a
	// full problem checkpoint every CheckpointEvery mutations. The
	// server appends but does not own the writer; the caller closes it
	// after Close. Nil disables (zero overhead on the mutation path).
	Journal *journal.Writer
	// CheckpointEvery is the periodic-checkpoint cadence in accepted
	// mutations. Default 256; <0 disables periodic checkpoints (the
	// boot checkpoint is always written).
	CheckpointEvery int

	// SLO, when >0, is the decision-latency objective: a published
	// batch whose worst mutation waited longer triggers an anomaly
	// capture (reason "slo_breach").
	SLO time.Duration
	// CaptureDir, when non-empty, enables anomaly-triggered diagnostics
	// bundles: on an SLO breach, an unexpected warm-start fallback, or
	// a solver divergence, the server dumps the journal tail, span ring
	// and heap/goroutine profiles into a timestamped subdirectory,
	// atomically (write to tmp, rename), at most one every 30 s.
	CaptureDir string

	// SolveGate, when non-nil, makes solving externally clocked: after
	// each wake+debounce the solver loop blocks until it receives a
	// token, and each token admits exactly one solve. The replay
	// verifier uses this to force one solve per recorded digest
	// regardless of wall-clock batching. Production servers leave it
	// nil.
	SolveGate <-chan struct{}
}

// SolverOptions returns the Options a restart checkpoint's solver
// parameters describe, the inverse of what New records there: replay
// and a daemon recovering from its journal boot the solver the recording
// ran, shard topology included.
func SolverOptions(sp *journal.SolverParams) Options {
	o := Options{
		Epsilon:       sp.Epsilon,
		Eta:           sp.Eta,
		MaxIters:      sp.MaxIters,
		StationaryTol: sp.StationaryTol,
		Workers:       sp.Workers,
		PaperMode:     !sp.Serving,
		momentum:      sp.Momentum,
		Shards:        sp.Shards,
		PlacementSalt: sp.PlacementSalt,
	}
	if sp.Serving && sp.Momentum == 0 {
		o.momentum = -1
	}
	return o
}

// solverParams is what New records of o in the restart checkpoint;
// SolverOptions maps it back.
func (o *Options) solverParams() *journal.SolverParams {
	sp := &journal.SolverParams{
		Epsilon:       o.Epsilon,
		Eta:           o.Eta,
		MaxIters:      o.MaxIters,
		StationaryTol: o.StationaryTol,
		Workers:       o.Workers,
		Serving:       !o.PaperMode,
		Shards:        o.Shards,
		PlacementSalt: o.PlacementSalt,
	}
	if !o.PaperMode {
		sp.Momentum = max(o.momentum, 0)
	}
	return sp
}

func (o *Options) setDefaults() {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.2
	}
	if o.Eta <= 0 {
		o.Eta = 0.04
	}
	if o.momentum == 0 {
		o.momentum = shard.ServingMomentum
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 4000
	}
	if o.StationaryTol == 0 {
		o.StationaryTol = 1e-3
	}
	if o.Debounce == 0 {
		o.Debounce = 25 * time.Millisecond
	}
	if o.HistoryCap == 0 {
		o.HistoryCap = 64
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 256
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
}

// CommodityStatus is one commodity's slice of a snapshot.
type CommodityStatus struct {
	Name     string  `json:"name"`
	Offered  float64 `json:"offered"`  // λ_j at solve time
	Admitted float64 `json:"admitted"` // a_j
	Utility  float64 `json:"utility"`  // U_j(a_j)
}

// Snapshot is one converged, immutable view of the system. Readers get
// the whole struct from one atomic load, so every field is consistent
// with every other; nothing in it is ever mutated after publication.
type Snapshot struct {
	// Generation counts published snapshots, starting at 1.
	Generation int64 `json:"generation"`
	// Rev is the mutation revision the solve captured; Server.Rev()
	// beyond this means mutations are pending or in flight.
	Rev int64 `json:"rev"`
	// Warm reports whether the solve warm-started from the previous
	// snapshot's routing (false: cold start from the initial routing).
	Warm bool `json:"warm"`
	// Iterations the solve ran; Converged whether the stationarity
	// tolerance was met within the budget. Drained reports a solve cut
	// short by server shutdown: its iteration count is wall-clock
	// truncation, not solver behavior, so replay verification skips it.
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	Drained    bool `json:"drained,omitempty"`
	// SolveSeconds is the wall-clock of this solve.
	SolveSeconds float64 `json:"solveSeconds"`
	// Utility is Σ_j U_j(a_j); Feasible whether f_i ≤ C_i everywhere.
	Utility  float64 `json:"utility"`
	Feasible bool    `json:"feasible"`
	// Commodities reports per-commodity admission; Usage per-resource
	// allocation on the original network.
	Commodities []CommodityStatus `json:"commodities"`
	Usage       []core.NodeUsage  `json:"usage"`
	// Explain is the per-commodity bottleneck attribution at this
	// operating point: binding resources with shadow prices and the
	// marginal-utility-vs-path-cost gap (served on GET /explain).
	Explain []core.CommodityExplain `json:"explain,omitempty"`
}

// Server is the admission service. Create with New, mutate through the
// Add/Remove/Set methods (or the HTTP API in http.go), read through
// Snapshot, and stop with Close.
type Server struct {
	opts Options

	mu          sync.Mutex
	problem     *stream.Problem // desired state; replaced under mu, never edited
	rev         int64           // bumped per accepted mutation
	pending     []*decision     // traced mutations awaiting a snapshot; under mu
	journalMuts int             // mutations journaled since boot; drives periodic checkpoints

	// coord owns the solver shards, their engines and warm-start state,
	// and the turns they take; solver-goroutine only.
	coord *shard.Coordinator

	snap atomic.Pointer[Snapshot]

	histMu sync.Mutex
	hist   []GenerationRecord // the last HistoryCap generations, oldest first

	// Anomaly-capture state: a busy flag so overlapping triggers don't
	// stack bundle writers, the last capture time for rate limiting,
	// and a sequence number naming bundle directories.
	captureBusy atomic.Bool
	captureLast atomic.Int64 // unix nanos
	captureSeq  atomic.Int64

	wake   chan struct{} // 1-buffered mutation signal
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// decision is one traced mutation in flight: accepted (rev bumped) but
// not yet incorporated into a published snapshot. The root span opened
// at ingress; the coalesce child closes when a solve picks the batch
// up; the root closes at publish with the decision latency.
type decision struct {
	rev      int64
	received time.Time
	root     *span.Active
	coalesce *span.Active
}

// maxPendingDecisions bounds the traced-mutation backlog: if the solver
// cannot keep up, the oldest decisions are closed early (attribute
// dropped=true) rather than growing without bound.
const maxPendingDecisions = 4096

// AdmissionFlip is one commodity crossing the admitted↔rejected
// boundary between consecutive generations — the events streamtop
// tails. A commodity counts as rejected when its admitted rate is
// negligible against its offered rate (below 1% or absolute 1e-9).
type AdmissionFlip struct {
	Generation int64     `json:"generation"`
	Commodity  string    `json:"commodity"`
	Admitted   bool      `json:"admitted"` // new state
	Rate       float64   `json:"rate"`     // admitted rate a_j at the flip
	Offered    float64   `json:"offered"`
	Trace      string    `json:"trace,omitempty"` // triggering mutation batch's trace ID
	At         time.Time `json:"at"`
}

// rejected is the admitted↔rejected boundary used for flip detection.
func rejected(admitted, offered float64) bool {
	return admitted < 1e-9 || admitted < 0.01*offered
}

// New starts the solver loop over an initial problem (which may have
// zero commodities — the service then idles until the first arrival).
// The server never writes p: its first version shares p's network and
// commodities rather than copying them, so the caller must not edit p in
// place while the server runs (Clone it first to keep editing a copy).
func New(p *stream.Problem, opts Options) (*Server, error) {
	opts.setDefaults()
	if p == nil {
		return nil, fmt.Errorf("server: nil problem")
	}
	if len(p.Commodities) > 0 {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		problem: p.NewVersion(),
		wake:    make(chan struct{}, 1),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	if opts.CaptureDir != "" {
		s.captureSeq.Store(lastCaptureSeq(opts.CaptureDir))
	}
	s.coord = shard.New(shard.Config{
		Shards:        opts.Shards,
		Salt:          opts.PlacementSalt,
		Epsilon:       opts.Epsilon,
		Eta:           opts.Eta,
		MaxIters:      opts.MaxIters,
		StationaryTol: opts.StationaryTol,
		Workers:       opts.Workers,
		Serving:       !opts.PaperMode,
		Momentum:      opts.momentum,
		Recorder:      opts.Recorder,
		Logf:          opts.Logf,
	})
	if len(p.Commodities) > 0 {
		s.rev = 1
		s.signal()
	}
	if opts.Journal != nil {
		// The restart checkpoint marks a replay-run boundary: a fresh
		// server starts here, generations restart at 1, and the recorded
		// solver parameters make the replay's arithmetic identical.
		pj, err := s.problem.MarshalJSON()
		if err != nil {
			cancel()
			return nil, fmt.Errorf("server: journal boot checkpoint: %w", err)
		}
		rec := journal.Record{
			Kind: journal.KindCheckpoint,
			Rev:  s.rev,
			Checkpoint: &journal.Checkpoint{
				Problem: pj,
				Restart: true,
				Solver:  opts.solverParams(),
			},
		}
		if err := opts.Journal.Append(rec); err != nil {
			cancel()
			return nil, err
		}
		if err := opts.Journal.Sync(); err != nil {
			cancel()
			return nil, err
		}
	}
	go s.loop()
	return s, nil
}

// Close stops the solver loop, draining an in-flight solve: the loop
// notices the cancellation at the next iteration boundary, publishes
// what it has, and exits. Close blocks until then.
func (s *Server) Close() error {
	s.cancel()
	<-s.done
	return nil
}

// Snapshot returns the latest converged snapshot (nil before the first
// solve completes). The returned value is immutable and lock-free.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Rev returns the current mutation revision; a snapshot with a smaller
// Rev means a re-solve is pending or in flight.
func (s *Server) Rev() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rev
}

// ProblemJSON serializes the current desired problem (not the last-
// solved one). Installed problems are immutable, so only the pointer
// read holds the write-path mutex; the O(J) marshal runs outside it.
func (s *Server) ProblemJSON() ([]byte, error) {
	s.mu.Lock()
	p := s.problem
	s.mu.Unlock()
	return p.MarshalJSON()
}

// signal wakes the solver; non-blocking because wake is 1-buffered and
// one pending token already means "state is dirty".
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// ingress carries a mutation's arrival context: the client's W3C trace
// context (zero when no traceparent was sent — a fresh trace starts)
// and when the request was received (zero means now). The HTTP layer
// fills it from the request; direct API callers pass the zero value.
type ingress struct {
	tc span.Context
	at time.Time
}

// Apply is the write path: every change to the desired problem — from
// the typed methods below, the HTTP routes, the load driver, the replay
// verifier — is one journal.Mutation through here. It returns the
// revision the mutation produced, or the unchanged revision and an error
// when journal.Apply rejects it.
func (s *Server) Apply(m journal.Mutation) (int64, error) {
	return s.mutate(ingress{}, m)
}

// mutate applies ms transactionally, all or nothing: journal.Apply runs
// them in order against a new version of the desired problem, and only
// when every one succeeds is that version swapped in. Each mutation then takes
// its own revision, opens its decision's trace and is journaled — one
// record per revision — before one solver wake for the group. A rejected
// group leaves no trace. Registering the
// decisions under mu is what makes attribution exact: the solver also
// captures (problem, rev, pending) under mu, so a decision is always
// either in the batch of the solve that saw its revision, or still
// pending.
func (s *Server) mutate(ing ingress, ms ...journal.Mutation) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.problem.NewVersion()
	for i := range ms {
		if err := journal.Apply(next, &ms[i]); err != nil {
			return s.rev, err
		}
	}
	s.problem = next
	journaled := s.journalMuts
	for _, m := range ms {
		s.rev++
		s.opts.Recorder.ServerMutation(m.Op, m.Target)
		s.trackDecisionLocked(ing, m.Op, m.Target)
		if s.opts.Journal != nil {
			s.journalMutationLocked(ing, m)
		}
	}
	// The periodic checkpoint waits for the end of the group: only there
	// is s.problem the state at s.rev.
	if every := s.opts.CheckpointEvery; every > 0 && s.journalMuts/every > journaled/every {
		s.journalCheckpointLocked()
	}
	s.signal()
	return s.rev, nil
}

// journalMutationLocked appends one accepted mutation to the flight
// recorder, encoding its payload first if a constructor left that for
// now. Journal errors are logged, not propagated: the mutation was
// already applied, and losing observability must not fail admission.
// Callers hold s.mu, which orders records by revision.
func (s *Server) journalMutationLocked(ing ingress, m journal.Mutation) {
	trace := ing.tc.TraceHex()
	if n := len(s.pending); n > 0 && s.pending[n-1].rev == s.rev {
		trace = s.pending[n-1].root.Context().TraceHex()
	}
	err := m.Encode()
	if err == nil {
		err = s.opts.Journal.Append(journal.Record{Kind: journal.KindMutation, Rev: s.rev, Trace: trace, Mutation: &m})
	}
	if err != nil {
		s.opts.Logf("server: journal append failed at rev %d: %v", s.rev, err)
		return
	}
	s.journalMuts++
}

// journalCheckpointLocked writes the periodic full checkpoint of the
// desired problem at the current revision. Callers hold s.mu.
func (s *Server) journalCheckpointLocked() {
	pj, err := s.problem.MarshalJSON()
	if err != nil {
		s.opts.Logf("server: journal checkpoint marshal failed at rev %d: %v", s.rev, err)
		return
	}
	err = s.opts.Journal.Append(journal.Record{
		Kind:       journal.KindCheckpoint,
		Rev:        s.rev,
		Checkpoint: &journal.Checkpoint{Problem: pj},
	})
	if err != nil {
		s.opts.Logf("server: journal checkpoint failed at rev %d: %v", s.rev, err)
	}
}

// trackDecisionLocked opens the decision-lifecycle spans for one
// accepted mutation: the root "decision" span (under the client's
// traceparent when given), an "ingress" child backdated to the request
// arrival, and the open "coalesce" child the solver closes when it
// picks the mutation up. Callers hold s.mu; a nil tracer is free.
// Decisions are also tracked (with nil spans — every Active method
// no-ops on nil) when a latency SLO is set, so publish can measure
// batch latency without requiring span tracing.
func (s *Server) trackDecisionLocked(ing ingress, kind, target string) {
	tr := s.opts.Spans
	if tr == nil && s.opts.SLO <= 0 {
		return
	}
	at := ing.at
	if at.IsZero() {
		at = time.Now()
	}
	root := tr.StartAt("decision", ing.tc, at)
	root.SetAttr("kind", kind)
	root.SetAttr("target", target)
	root.SetAttrInt("rev", s.rev)
	in := tr.StartAt("ingress", root.Context(), at)
	in.SetAttr("kind", kind)
	in.End()
	co := tr.Start("coalesce", root.Context())
	s.pending = append(s.pending, &decision{rev: s.rev, received: at, root: root, coalesce: co})
	if len(s.pending) > maxPendingDecisions {
		d := s.pending[0]
		s.pending = append(s.pending[:0], s.pending[1:]...)
		d.coalesce.End()
		d.root.SetAttrBool("dropped", true)
		d.root.End()
	}
}

// AddCommodityJSON admits a new commodity described in the problem
// schema's JSON form (see internal/stream). The extended topology
// changes: the next solve starts the newcomer cold and, in the serving
// mode, every other commodity where it was.
func (s *Server) AddCommodityJSON(spec []byte) (int64, error) {
	return s.Apply(journal.AddCommodity(spec))
}

// RemoveCommodity ends a commodity's session.
func (s *Server) RemoveCommodity(name string) (int64, error) {
	return s.Apply(journal.RemoveCommodity(name))
}

// SetMaxRate updates a commodity's offered rate λ_j. Same topology, so
// the next solve warm-starts.
func (s *Server) SetMaxRate(name string, rate float64) (int64, error) {
	return s.Apply(journal.SetRate(name, rate))
}

// SetMaxRates updates many commodities' offered rates in one mutation:
// one problem version, one revision bump, one journal record, one
// solver wake for the whole batch, where per-commodity SetMaxRate calls
// pay each of those per commodity. All-or-nothing: an empty batch, any
// unknown commodity or any invalid rate rejects the entire batch.
func (s *Server) SetMaxRates(rates map[string]float64) (int64, error) {
	return s.Apply(journal.SetRates(rates))
}

// SetCapacity changes a processing node's capacity — the failure/
// recovery injection primitive (E8 semantics: cut to a fraction, later
// restore).
func (s *Server) SetCapacity(node string, capacity float64) (int64, error) {
	return s.Apply(journal.SetCapacity(node, capacity))
}

// SetBandwidth changes a link's bandwidth.
func (s *Server) SetBandwidth(from, to string, bandwidth float64) (int64, error) {
	return s.Apply(journal.SetBandwidth(from, to, bandwidth))
}

// ScaleCapacity multiplies a node's capacity by factor — the E8
// failure-injection idiom (0.25 models a three-quarter outage, a later
// 4.0 restores it).
func (s *Server) ScaleCapacity(node string, factor float64) (int64, error) {
	return s.Apply(journal.ScaleCapacity(node, factor))
}

// ScaleBandwidth multiplies a link's bandwidth by factor.
func (s *Server) ScaleBandwidth(from, to string, factor float64) (int64, error) {
	return s.Apply(journal.ScaleBandwidth(from, to, factor))
}

// loop is the solver goroutine: wait for a mutation, coalesce the
// burst, solve, publish, repeat.
func (s *Server) loop() {
	defer close(s.done)
	defer s.abandonPending()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.wake:
		}
		s.debounce()
		if s.opts.SolveGate != nil {
			select {
			case <-s.ctx.Done():
				return
			case <-s.opts.SolveGate:
			}
		}
		s.solveOnce()
	}
}

// Kick wakes the solver loop as if a mutation had arrived, without
// changing any state. Paired with SolveGate it lets an external clock
// (the replay verifier) drive solves one at a time: Kick, then send a
// gate token, then wait for the generation. Extra kicks are harmless —
// the wake channel is 1-buffered and solves happen only on gate tokens.
func (s *Server) Kick() { s.signal() }

// abandonPending closes the spans of decisions the server shut down
// before answering, so a drained close leaves no dangling spans.
func (s *Server) abandonPending() {
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, d := range batch {
		d.coalesce.End()
		d.root.SetAttrBool("abandoned", true)
		d.root.End()
	}
}

// debounce waits until mutations stop arriving for Debounce (or
// 20×Debounce in total), so a burst of rate updates triggers one re-solve.
func (s *Server) debounce() {
	if s.opts.Debounce <= 0 {
		return
	}
	quiet := time.NewTimer(s.opts.Debounce)
	defer quiet.Stop()
	most := time.NewTimer(20 * s.opts.Debounce)
	defer most.Stop()
	for {
		select {
		case <-s.wake:
			if !quiet.Stop() {
				<-quiet.C
			}
			quiet.Reset(s.opts.Debounce)
		case <-quiet.C:
			return
		case <-most.C:
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// solveOnce takes the desired problem (by pointer — installed problems
// are immutable, see the package comment) and the pending traced
// mutations it will incorporate, has the coordinator bring the shards
// the batch changed up to it (in place where only parameters moved, by a
// rebuild that warm-starts where the extended topology allows) and take
// turns until every shard is stationary, and
// publishes a new snapshot stitched from the per-shard results. The
// solve's phases — build, engine init (warm-or-cold), iterate, publish —
// are child spans of a "solve" span parented to the first coalesced
// mutation's decision trace.
func (s *Server) solveOnce() {
	s.mu.Lock()
	p := s.problem
	rev := s.rev
	// Every pending decision has rev ≤ s.rev, so this solve will
	// incorporate all of them: take the whole batch.
	batch := s.pending
	s.pending = nil
	s.mu.Unlock()

	tr := s.opts.Spans
	var solveSpan *span.Active
	if tr != nil {
		parent := span.Context{}
		if len(batch) > 0 {
			parent = batch[0].root.Context()
		}
		solveSpan = tr.Start("solve", parent)
		solveSpan.SetAttrInt("rev", rev)
		solveSpan.SetAttrInt("mutations_coalesced", int64(len(batch)))
		solveSpan.SetAttrInt("shards", int64(s.coord.Shards()))
		for _, d := range batch {
			d.coalesce.SetAttrInt("mutations_coalesced", int64(len(batch)))
			d.coalesce.End()
			if d != batch[0] {
				// Coalesced siblings record which trace carries the
				// shared solve subtree.
				d.root.SetAttr("solve_trace", solveSpan.Context().TraceHex())
			}
		}
	}

	start := time.Now()
	if len(p.Commodities) == 0 {
		// Nothing to admit: publish an empty snapshot so readers see
		// the departure take effect.
		s.coord.Clear(p)
		s.publish(&Snapshot{
			Rev: rev, Warm: false, Converged: true, Feasible: true,
			SolveSeconds: time.Since(start).Seconds(),
		}, batch, solveSpan)
		return
	}

	bs := tr.Start("build", solveSpan.Context())
	err := s.coord.Build(p, nil)
	bs.End()
	if err != nil {
		// Mutations are validated before acceptance, so this is a bug,
		// not an operator error; keep the last good snapshot and log. The
		// next solve compares every shard with its problem again.
		s.opts.Logf("server: transform failed at rev %d: %v", rev, err)
		solveSpan.SetAttr("error", err.Error())
		solveSpan.End()
		for _, d := range batch {
			d.root.SetAttr("error", err.Error())
			d.root.End()
		}
		return
	}

	es := tr.Start("engine_init", solveSpan.Context())
	warm, fallback := s.coord.Bind()
	startKind := "cold"
	if warm {
		startKind = "warm"
	}
	es.SetAttr("start", startKind)
	es.End()
	solveSpan.SetAttr("start", startKind)
	if fallback != nil {
		s.maybeCapture("cold_fallback", fallback.Error())
	}

	it := tr.Start("iterate", solveSpan.Context())
	res := s.coord.Solve(s.ctx)
	it.SetAttrInt("iterations", int64(res.Iterations))
	it.SetAttrInt("rounds", int64(res.Rounds))
	it.SetAttrBool("converged", res.Converged)
	it.End()
	if res.Err != nil {
		s.opts.Recorder.Divergence(res.Iterations, res.Err.Error())
		s.opts.Logf("server: solve diverged at rev %d: %v", rev, res.Err)
		s.maybeCapture("divergence", fmt.Sprintf("rev %d: %v", rev, res.Err))
	}

	states := s.coord.Commodities()
	snap := &Snapshot{
		Rev:          rev,
		Warm:         warm,
		Iterations:   res.Iterations,
		Converged:    res.Converged,
		Drained:      res.Drained,
		SolveSeconds: time.Since(start).Seconds(),
		Utility:      res.Utility,
		Feasible:     res.Feasible,
		Commodities:  make([]CommodityStatus, len(states)),
		Usage:        s.coord.UsageReport(),
		Explain:      s.coord.Explain(),
	}
	for gi, cs := range states {
		snap.Commodities[gi] = CommodityStatus{
			Name:     cs.Name,
			Offered:  cs.Offered,
			Admitted: cs.Admitted,
			Utility:  p.Commodities[gi].Utility.Value(cs.Admitted),
		}
	}
	s.publish(snap, batch, solveSpan)
}

// publish assigns the next generation, emits its observability events
// (solve summary, admission flips), appends its record to the generation
// ring, journals its digest, closes the decision lifecycle — every
// mutation in the incorporated batch ends its root span, stamped with
// the generation that answered it (the recorder observes it as
// streamopt_stage_seconds{stage="decision"}), then the publish and
// solve spans end — and swaps the snapshot in.
//
// The swap comes after everything the generation writes or allocates: a
// client that waits for a generation and then acts finds the solver
// idle, its spans finished, and the digest of generation g precedes in
// the journal every mutation sent in answer to g. (With the digest
// appended after the swap, a waiter that was faster than the ~0.3 ms of
// diff + digest at J=1k raced it.) Only the SLO check, which may write
// a capture bundle, runs after the swap.
func (s *Server) publish(snap *Snapshot, batch []*decision, solveSpan *span.Active) {
	ps := s.opts.Spans.Start("publish", solveSpan.Context())
	prev := s.snap.Load()
	snap.Generation = 1
	if prev != nil {
		snap.Generation = prev.Generation + 1
	}
	rec := s.opts.Recorder
	rec.ServerSolve(snap.Generation, snap.Warm, snap.SolveSeconds, snap.Utility, snap.Iterations)

	trigger := ""
	if len(batch) > 0 {
		trigger = batch[0].root.Context().TraceHex()
	}
	var flips []AdmissionFlip
	if prev != nil && (s.opts.HistoryCap >= 0 || s.opts.Journal != nil || rec != nil) {
		flips = DiffFlips(prev, snap)
	}
	now := time.Now()
	for i := range flips {
		flips[i].Trace, flips[i].At = trigger, now
		rec.AdmissionFlip(snap.Generation, flips[i].Commodity, flips[i].Admitted, flips[i].Rate, trigger)
	}
	s.recordGeneration(GenerationRecord{
		Generation:   snap.Generation,
		Rev:          snap.Rev,
		Warm:         snap.Warm,
		Iterations:   snap.Iterations,
		SolveSeconds: snap.SolveSeconds,
		Utility:      snap.Utility,
		Commodities:  snap.Commodities,
		Flips:        flips,
	})
	if s.opts.Journal != nil {
		err := s.opts.Journal.Append(journal.Record{
			Kind:   journal.KindDigest,
			Rev:    snap.Rev,
			Trace:  trigger,
			Digest: snap.JournalDigest(flips),
		})
		if err != nil {
			s.opts.Logf("server: journal digest failed at generation %d: %v", snap.Generation, err)
		}
	}
	maxLat := 0.0
	for _, d := range batch {
		lat := time.Since(d.received).Seconds()
		if lat > maxLat {
			maxLat = lat
		}
		d.root.SetAttrInt("generation", snap.Generation)
		d.root.SetAttrFloat("decision_latency_s", lat)
		d.root.End()
	}
	ps.End()
	solveSpan.SetAttrInt("generation", snap.Generation)
	solveSpan.End()
	s.snap.Store(snap)

	if s.opts.SLO > 0 && maxLat > s.opts.SLO.Seconds() {
		s.maybeCapture("slo_breach", fmt.Sprintf(
			"decision latency %.3fs over SLO %v at generation %d", maxLat, s.opts.SLO, snap.Generation))
	}
}

// DiffFlips returns the admitted↔rejected transitions between two
// consecutive snapshots, in next's commodity order. Trace and At are
// left zero; the live server stamps them when recording, and the
// replay verifier compares the (commodity, direction) sequence.
func DiffFlips(prev, next *Snapshot) []AdmissionFlip {
	if prev == nil {
		return nil
	}
	was := make(map[string]bool, len(prev.Commodities))
	for _, c := range prev.Commodities {
		was[c.Name] = !rejected(c.Admitted, c.Offered)
	}
	var flips []AdmissionFlip
	for _, c := range next.Commodities {
		admitted := !rejected(c.Admitted, c.Offered)
		before, known := was[c.Name]
		if !known || before == admitted {
			continue
		}
		flips = append(flips, AdmissionFlip{
			Generation: next.Generation,
			Commodity:  c.Name,
			Admitted:   admitted,
			Rate:       c.Admitted,
			Offered:    c.Offered,
		})
	}
	return flips
}

// JournalDigest summarizes the snapshot as a flight-recorder digest:
// the scalar trajectory (generation, utility, convergence) plus the
// canonical admitted-set hash and the flips this generation caused.
func (snap *Snapshot) JournalDigest(flips []AdmissionFlip) *journal.Digest {
	entries := make([]journal.AdmittedEntry, len(snap.Commodities))
	for i, c := range snap.Commodities {
		entries[i] = journal.AdmittedEntry{Name: c.Name, Rate: c.Admitted}
	}
	d := &journal.Digest{
		Generation:   snap.Generation,
		Warm:         snap.Warm,
		Iterations:   snap.Iterations,
		Converged:    snap.Converged,
		Drained:      snap.Drained,
		Feasible:     snap.Feasible,
		Utility:      snap.Utility,
		Commodities:  len(snap.Commodities),
		AdmittedHash: journal.AdmittedHash(entries),
	}
	for _, f := range flips {
		d.Flips = append(d.Flips, journal.Flip{Commodity: f.Commodity, Admitted: f.Admitted})
	}
	return d
}

// GenerationRecord is what the generation ring keeps of one published
// snapshot: the scalars GET /history renders, the admitted rates (the
// snapshot's own Commodities slice, shared, since it is immutable) and
// the admission flips publish diffed for it. It never holds the
// *Snapshot, so a retired generation's Explain and Usage are garbage as
// soon as no reader holds the snapshot itself.
type GenerationRecord struct {
	Generation   int64
	Rev          int64
	Warm         bool
	Iterations   int
	SolveSeconds float64
	Utility      float64
	Commodities  []CommodityStatus
	Flips        []AdmissionFlip
}

// recordGeneration appends one generation to the ring, dropping the
// oldest once it holds HistoryCap.
func (s *Server) recordGeneration(g GenerationRecord) {
	if s.opts.HistoryCap < 0 {
		return
	}
	s.histMu.Lock()
	defer s.histMu.Unlock()
	if s.hist == nil {
		s.hist = make([]GenerationRecord, 0, s.opts.HistoryCap)
	}
	if len(s.hist) == s.opts.HistoryCap {
		copy(s.hist, s.hist[1:])
		s.hist = s.hist[:len(s.hist)-1]
	}
	s.hist = append(s.hist, g)
}

// History returns the retained generations, oldest first.
func (s *Server) History() []GenerationRecord {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return append([]GenerationRecord(nil), s.hist...)
}

// Flips returns the admission transitions of the retained generations,
// oldest first.
func (s *Server) Flips() []AdmissionFlip {
	var out []AdmissionFlip
	for _, g := range s.History() {
		out = append(out, g.Flips...)
	}
	return out
}

// WaitForGeneration blocks until a snapshot with Generation ≥ gen is
// published, or the timeout expires. Mutating and then waiting for
// (previous generation)+1 is the read-your-write recipe tests and
// scripted demos use; a coalesced burst of mutations still lands in
// that one next generation.
//
// Semantics under concurrent publishes: generations are assigned and
// stored by the single solver goroutine, so the published generation is
// monotone and a successful return carries the first snapshot this
// waiter observed at or past gen (possibly further along if publishes
// raced the wake-up — never behind). On timeout or server close the
// error is non-nil and the latest published snapshot (nil if none yet)
// is returned alongside it, so callers can degrade to stale-but-safe
// reads instead of losing the state they already had.
func (s *Server) WaitForGeneration(gen int64, timeout time.Duration) (*Snapshot, error) {
	deadline := time.Now().Add(timeout)
	for {
		snap := s.snap.Load()
		if snap != nil && snap.Generation >= gen {
			return snap, nil
		}
		if time.Now().After(deadline) {
			return snap, fmt.Errorf("server: no snapshot generation ≥ %d within %v", gen, timeout)
		}
		select {
		case <-s.ctx.Done():
			return s.snap.Load(), fmt.Errorf("server: closed while waiting for generation %d", gen)
		case <-time.After(time.Millisecond):
		}
	}
}
