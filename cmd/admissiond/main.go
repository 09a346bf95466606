// Command admissiond is the streaming admission server: it loads (or
// generates) a stream-processing problem instance, keeps the joint
// admission-control + routing solution converged as commodities
// arrive, change their offered rates, and depart, and serves the JSON
// API of internal/server plus live /metrics and /debug/pprof on one
// listener.
//
//	go run ./cmd/netgen -seed 42 > instance.json
//	go run ./cmd/admissiond -in instance.json -addr :8080
//
//	# live rate update; the server re-solves warm-started
//	curl -X PATCH localhost:8080/v1/commodities/S1 -d '{"maxRate": 30}'
//	curl localhost:8080/v1/admitted
//
//	# solver introspection
//	curl localhost:8080/explain?commodity=S1   # bottleneck attribution
//	curl localhost:8080/history                # generation-over-generation diffs
//	curl localhost:8080/debug/spans            # where each decision's latency went
//
// The daemon reports a solve per sweep of shard turns (the
// streamopt_shard_* series) and per decision (the span tree), the same
// way at every -shards value. For per-iteration convergence curves,
// solve the served instance offline:
//
//	curl -s localhost:8080/v1/problem > live.json
//	go run ./cmd/streamopt -in live.json -trace-out trace.jsonl
//
// Without -in, a random instance is generated (-gen-seed, -gen-nodes,
// -gen-commodities), which is handy for demos and smoke tests.
// SIGINT/SIGTERM shut down gracefully, draining an in-flight solve.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/randnet"
	"repro/internal/server"
	"repro/internal/stream"
)

// cliConfig carries every flag so tests can drive realMain directly.
type cliConfig struct {
	in       string
	addr     string
	genSeed  int64
	genNodes int
	genComms int

	eta           float64
	eps           float64
	iters         int
	stationaryTol float64
	debounce      time.Duration

	shards        int
	placementSalt uint64

	spanCap    int
	historyCap int

	journalDir      string
	checkpointEvery int
	segmentBytes    int64
	fsync           string
	sloMS           float64
	captureDir      string
	runtimeSample   time.Duration

	// flagSet names the flags the operator passed explicitly; journal
	// recovery only adopts recorded solver settings for flags absent
	// from it.
	flagSet map[string]bool

	// ready, when non-nil, receives the bound address once the API is
	// serving; stop, when non-nil, replaces signal-based shutdown.
	ready func(addr string)
	stop  chan struct{}
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.in, "in", "", "problem JSON (omit to generate a random instance)")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address for the API and /metrics")
	flag.Int64Var(&cfg.genSeed, "gen-seed", 1, "seed for the generated instance when -in is absent")
	flag.IntVar(&cfg.genNodes, "gen-nodes", 24, "processing nodes for the generated instance")
	flag.IntVar(&cfg.genComms, "gen-commodities", 3, "commodities for the generated instance")
	flag.Float64Var(&cfg.eta, "eta", 0.04, "gradient step scale η: where step control starts a cold solve")
	flag.Float64Var(&cfg.eps, "eps", 0.2, "penalty coefficient ε")
	flag.IntVar(&cfg.iters, "iters", 4000, "per-solve iteration budget, summed over shards")
	flag.Float64Var(&cfg.stationaryTol, "stationary-tol", 1e-3, "Theorem-2 stationarity tolerance ending a solve early (<0 disables)")
	flag.DurationVar(&cfg.debounce, "debounce", 25*time.Millisecond, "mutation coalescing window before a re-solve")
	flag.IntVar(&cfg.shards, "shards", 1, "solver shards commodities are partitioned across; they take turns (1 = one shard owns every commodity, nothing to exchange)")
	flag.Uint64Var(&cfg.placementSalt, "placement-salt", 0, "consistent-hash salt for commodity→shard placement")
	flag.IntVar(&cfg.spanCap, "span-cap", span.DefaultCapacity, "decision-lifecycle span ring capacity served on /debug/spans (0 disables span tracing)")
	flag.IntVar(&cfg.historyCap, "history-cap", 64, "generations retained for /history and /v1/flips (<0 disables both)")
	flag.StringVar(&cfg.journalDir, "journal-dir", "", "flight-recorder journal directory (empty disables journaling; recovers state from an existing journal)")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint-every", 256, "full problem checkpoint cadence in accepted mutations, written in the background: a checkpoint lands after its revision's mutation, recovery and replay key it by revision (<0 disables periodic checkpoints)")
	flag.Int64Var(&cfg.segmentBytes, "segment-bytes", 64<<20, "journal segment rotation threshold in bytes")
	flag.StringVar(&cfg.fsync, "fsync", "interval", "journal durability policy: interval, always, or never")
	flag.Float64Var(&cfg.sloMS, "slo-ms", 0, "decision-latency SLO in milliseconds; a breaching batch triggers a diagnostics capture (0 disables)")
	flag.StringVar(&cfg.captureDir, "capture-dir", "", "anomaly diagnostics bundle directory (default <journal-dir>/bundles when journaling)")
	flag.DurationVar(&cfg.runtimeSample, "runtime-sample", 10*time.Second, "runtime telemetry (goroutines, heap, GC) sampling period (0 disables)")
	flag.Parse()
	cfg.flagSet = make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { cfg.flagSet[f.Name] = true })
	if err := realMain(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "admissiond:", err)
		os.Exit(1)
	}
}

func loadProblem(cfg cliConfig) (*stream.Problem, error) {
	if cfg.in != "" {
		data, err := os.ReadFile(cfg.in)
		if err != nil {
			return nil, err
		}
		return stream.ParseProblem(data)
	}
	return randnet.Generate(randnet.Config{
		Seed: cfg.genSeed, Nodes: cfg.genNodes, Commodities: cfg.genComms,
	})
}

// recordedFlags pairs every flag whose value the journal's restart
// checkpoint records with the server option it sets.
var recordedFlags = map[string]func(o, rec *server.Options){
	"eps":            func(o, rec *server.Options) { o.Epsilon = rec.Epsilon },
	"eta":            func(o, rec *server.Options) { o.Eta = rec.Eta },
	"iters":          func(o, rec *server.Options) { o.MaxIters = rec.MaxIters },
	"stationary-tol": func(o, rec *server.Options) { o.StationaryTol = rec.StationaryTol },
	"shards":         func(o, rec *server.Options) { o.Shards = rec.Shards },
	"placement-salt": func(o, rec *server.Options) { o.PlacementSalt = rec.PlacementSalt },
}

func realMain(cfg cliConfig) error {
	p, err := loadProblem(cfg)
	if err != nil {
		return err
	}
	opts := server.Options{
		Epsilon:         cfg.eps,
		Eta:             cfg.eta,
		MaxIters:        cfg.iters,
		StationaryTol:   cfg.stationaryTol,
		Shards:          cfg.shards,
		PlacementSalt:   cfg.placementSalt,
		Debounce:        cfg.debounce,
		HistoryCap:      cfg.historyCap,
		CheckpointEvery: cfg.checkpointEvery,
		SLO:             time.Duration(cfg.sloMS * float64(time.Millisecond)),
	}

	// An existing journal overrides -in/-gen-*: the daemon resumes the
	// desired problem it held before the crash or restart, minus any
	// unsynced tail loss.
	if cfg.journalDir != "" {
		has, err := journal.HasJournal(cfg.journalDir)
		if err != nil {
			return err
		}
		if has {
			recd, err := journal.Recover(cfg.journalDir)
			if err != nil {
				return fmt.Errorf("journal recovery: %w", err)
			}
			p = recd.Problem
			fmt.Fprintf(os.Stderr,
				"admissiond: recovered from journal %s (checkpoint rev %d + %d mutations, torn tail: %v)\n",
				cfg.journalDir, recd.CheckpointRev, recd.MutationsApplied, recd.Log.Truncated)
			// The solver follows the journal like the problem does: a
			// daemon journaled with -shards 4 -iters 400 reboots that way
			// without the operator re-passing the flags. Explicit flags
			// win, so a recovery can still deliberately re-shard.
			if recd.Solver != nil {
				recorded := server.SolverOptions(recd.Solver)
				for name, adopt := range recordedFlags {
					if !cfg.flagSet[name] {
						adopt(&opts, &recorded)
					}
				}
				fmt.Fprintf(os.Stderr,
					"admissiond: restored solver settings from journal (eps %g, eta %g, iters %d, stationary-tol %g, shards %d, salt %d)\n",
					opts.Epsilon, opts.Eta, opts.MaxIters, opts.StationaryTol,
					max(opts.Shards, 1), opts.PlacementSalt)
			}
		}
	}

	rec := obs.NewRecorder(obs.NewRegistry())

	var spans *span.Tracer
	if cfg.spanCap > 0 {
		spans = span.New(cfg.spanCap, rec)
	}

	var jw *journal.Writer
	if cfg.journalDir != "" {
		policy, err := journal.ParseFsyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		jw, err = journal.Create(cfg.journalDir, journal.Options{
			SegmentBytes: cfg.segmentBytes,
			Fsync:        policy,
			Registry:     rec.Registry(),
		})
		if err != nil {
			return err
		}
		if cfg.captureDir == "" {
			cfg.captureDir = filepath.Join(cfg.journalDir, "bundles")
		}
	}

	if cfg.runtimeSample > 0 {
		stopSampler := obs.StartRuntimeSampler(rec.Registry(), cfg.runtimeSample)
		defer stopSampler()
	}

	opts.Recorder, opts.Spans, opts.Journal, opts.CaptureDir = rec, spans, jw, cfg.captureDir
	s, err := server.New(p, opts)
	if err != nil {
		if jw != nil {
			_ = jw.Close()
		}
		return err
	}

	h, err := s.Serve(cfg.addr, rec.Registry())
	if err != nil {
		_ = s.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "admissiond: serving admission API, /metrics, /debug/pprof on %s\n", h.Addr())
	if cfg.ready != nil {
		cfg.ready(h.Addr())
	}

	// Block until a signal (or the test-injected stop), then drain.
	if cfg.stop != nil {
		<-cfg.stop
	} else {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sig := <-ch
		fmt.Fprintf(os.Stderr, "admissiond: %v, shutting down\n", sig)
	}
	// Shutdown order matters: stop admitting (listener), drain the
	// solver, then seal the journal so the final fsync covers every
	// record the server wrote.
	if err := h.Close(); err != nil {
		_ = s.Close()
		if jw != nil {
			_ = jw.Close()
		}
		return err
	}
	if err := s.Close(); err != nil {
		if jw != nil {
			_ = jw.Close()
		}
		return err
	}
	if jw != nil {
		return jw.Close()
	}
	return nil
}
