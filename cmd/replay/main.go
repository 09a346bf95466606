// Command replay verifies a flight-recorder journal: it loads each
// run's restart checkpoint, re-drives the recorded mutations through
// an in-proc admission server with the recorded solver settings, as
// fast as it can, and checks the replayed decision trajectory —
// utility per generation, admitted-set hashes, flip sequences —
// against the recorded digests.
//
//	go run ./cmd/replay -journal journaldir
//	go run ./cmd/replay -journal journaldir -out report.json
//
// Exit status: 0 clean, 1 trajectory mismatches (the report pinpoints
// each diverging generation), 2 unreadable or structurally invalid
// journal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/replay"
)

type cliConfig struct {
	journal string
	timeout time.Duration
	out     string
	quiet   bool

	stdout io.Writer
	stderr io.Writer
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.journal, "journal", "", "journal directory to verify (required)")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-solve replay timeout")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report to this file as well as stdout")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress progress lines")
	flag.Parse()
	cfg.stdout, cfg.stderr = os.Stdout, os.Stderr
	code, err := realMain(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func realMain(cfg cliConfig) (int, error) {
	if cfg.journal == "" {
		return 0, fmt.Errorf("-journal is required")
	}
	opts := replay.Options{Timeout: cfg.timeout}
	if !cfg.quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(cfg.stderr, format+"\n", args...)
		}
	}
	rep, err := replay.Verify(cfg.journal, opts)
	if err != nil {
		return 0, err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(cfg.stdout, string(blob))
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, append(blob, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	if !rep.Ok() {
		fmt.Fprintf(cfg.stderr, "replay: %d trajectory mismatch(es):\n", len(rep.Mismatches))
		for _, m := range rep.Mismatches {
			fmt.Fprintf(cfg.stderr, "  %s\n", m)
		}
		return 1, nil
	}
	fmt.Fprintf(cfg.stderr, "replay: verified %d run(s), %d digest(s), %d mutation(s), %d checkpoint(s): no mismatches\n",
		rep.Runs, rep.Digests, rep.Mutations, rep.CheckpointsVerified)
	return 0, nil
}
