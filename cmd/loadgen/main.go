// Command loadgen compiles declarative workload scenarios into
// deterministic event streams and drives them against the admission
// service.
//
// Modes (pick one):
//
//	-events   print the compiled event stream as JSONL (pure, seeded:
//	          the same scenario and -scale always print identical bytes)
//	-base     print the scenario's base network (no commodities) as
//	          instance JSON, suitable for `admissiond -in`
//	-run      drive the scenario once and print the run result
//	-sweep    sweep offered load across -scales and print the
//	          saturation report with the utility knee located
//
// The default backend is an in-process admission server built from the
// scenario's generated network; -target drives a live admissiond over
// HTTP instead. The remote server must be serving the scenario's base
// network — boot it with `-base`:
//
//	go run ./cmd/loadgen -scenario s.json -base > base.json
//	go run ./cmd/admissiond -in base.json -addr :8080 &
//	go run ./cmd/loadgen -scenario s.json -run -target http://localhost:8080
//
//	go run ./cmd/loadgen -scenario examples/scenarios/flashcrowd.json -sweep
//	go run ./cmd/loadgen -scenario examples/scenarios/churn.json -run -realtime -target http://localhost:8080
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/loadgen"
	"repro/internal/server"
)

type config struct {
	scenario string
	scale    float64
	events   bool
	base     bool
	run      bool
	sweep    bool
	scales   string
	target   string
	realtime bool
	sync     int
	timeout  time.Duration
	debounce time.Duration
	iters    int
	out      string
	journal  string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.scenario, "scenario", "", "scenario JSON path (required)")
	flag.Float64Var(&cfg.scale, "scale", 1, "offered-load scale factor for -events/-run")
	flag.BoolVar(&cfg.events, "events", false, "print the compiled event stream as JSONL and exit")
	flag.BoolVar(&cfg.base, "base", false, "print the scenario's base network as instance JSON (for admissiond -in)")
	flag.BoolVar(&cfg.run, "run", false, "drive the scenario once and print the run result")
	flag.BoolVar(&cfg.sweep, "sweep", false, "sweep offered load and print the saturation report")
	flag.StringVar(&cfg.scales, "scales", "0.25,0.5,1,2,4", "comma-separated scale factors for -sweep")
	flag.StringVar(&cfg.target, "target", "", "drive a live admissiond at this base URL instead of in-process")
	flag.BoolVar(&cfg.realtime, "realtime", false, "honor the scenario's epochMillis pacing on the wall clock")
	flag.IntVar(&cfg.sync, "sync", 1, "measure decision latency every N mutating epochs (0: only at run end)")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-sync snapshot wait bound")
	flag.DurationVar(&cfg.debounce, "debounce", 25*time.Millisecond, "in-process server solve debounce (-1ns: solve immediately)")
	flag.IntVar(&cfg.iters, "iters", 0, "in-process server per-solve iteration budget (0: server default)")
	flag.StringVar(&cfg.out, "out", "", "write the result/report here instead of stdout")
	flag.StringVar(&cfg.journal, "journal", "", "record the -run through a flight-recorder journal in this directory (in-process only; verify with cmd/replay)")
	flag.Parse()
	if err := realMain(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func realMain(stdout io.Writer, cfg config) error {
	if cfg.scenario == "" {
		return fmt.Errorf("-scenario is required")
	}
	modes := 0
	for _, m := range []bool{cfg.events, cfg.base, cfg.run, cfg.sweep} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("pick exactly one of -events, -base, -run, -sweep")
	}
	if cfg.journal != "" && !cfg.run {
		return fmt.Errorf("-journal only applies to -run")
	}
	data, err := os.ReadFile(cfg.scenario)
	if err != nil {
		return err
	}
	sc, err := loadgen.ParseScenario(data)
	if err != nil {
		return err
	}

	out := stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	switch {
	case cfg.events:
		c, err := loadgen.Compile(sc, cfg.scale)
		if err != nil {
			return err
		}
		stream, err := c.EventStreamJSONL()
		if err != nil {
			return err
		}
		_, err = out.Write(stream)
		return err

	case cfg.base:
		c, err := loadgen.Compile(sc, cfg.scale)
		if err != nil {
			return err
		}
		data, err := json.Marshal(c.Base)
		if err != nil {
			return err
		}
		_, err = out.Write(append(data, '\n'))
		return err

	case cfg.run:
		c, err := loadgen.Compile(sc, cfg.scale)
		if err != nil {
			return err
		}
		be, cleanup, err := backend(cfg, c)
		if err != nil {
			return err
		}
		res, err := loadgen.Run(c, be, driverOptions(cfg))
		cleanup() // close the server (and seal the journal) before reporting
		if err != nil {
			return err
		}
		return writeJSON(out, res)

	default: // -sweep
		scales, err := parseScales(cfg.scales)
		if err != nil {
			return err
		}
		opts := loadgen.SweepOptions{
			Scales: scales,
			Server: serverOptions(cfg),
			Driver: driverOptions(cfg),
		}
		if cfg.target != "" {
			opts.Backend = func(*loadgen.Compiled) (loadgen.Backend, func(), error) {
				return loadgen.HTTP{Base: cfg.target}, func() {}, nil
			}
		}
		rep, err := loadgen.Sweep(sc, opts)
		if err != nil {
			return err
		}
		data, err := rep.Marshal()
		if err != nil {
			return err
		}
		_, err = out.Write(append(data, '\n'))
		return err
	}
}

func serverOptions(cfg config) server.Options {
	return server.Options{
		Debounce: cfg.debounce,
		MaxIters: cfg.iters,
	}
}

func driverOptions(cfg config) loadgen.DriverOptions {
	return loadgen.DriverOptions{
		SyncEvery:   cfg.sync,
		SyncTimeout: cfg.timeout,
		RealTime:    cfg.realtime,
	}
}

func backend(cfg config, c *loadgen.Compiled) (loadgen.Backend, func(), error) {
	if cfg.target != "" {
		if cfg.journal != "" {
			return nil, nil, fmt.Errorf("-journal records the in-process server; it cannot be combined with -target")
		}
		return loadgen.HTTP{Base: cfg.target}, func() {}, nil
	}
	opts := serverOptions(cfg)
	var jw *journal.Writer
	if cfg.journal != "" {
		// Stamp the compiled stream's identity into the journal header
		// so a replay can be tied back to the exact workload.
		sha, err := c.EventStreamHash()
		if err != nil {
			return nil, nil, err
		}
		jw, err = journal.Create(cfg.journal, journal.Options{StreamSHA: sha})
		if err != nil {
			return nil, nil, err
		}
		opts.Journal = jw
	}
	srv, err := server.New(c.Base, opts)
	if err != nil {
		if jw != nil {
			_ = jw.Close()
		}
		return nil, nil, err
	}
	return loadgen.InProc{S: srv}, func() {
		srv.Close()
		if jw != nil {
			_ = jw.Close()
		}
	}, nil
}

func parseScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad scale %q (want positive numbers, e.g. -scales 0.5,1,2)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-scales is empty")
	}
	return out, nil
}

func writeJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
