// Command bench is the repository's benchmark: four deterministic
// closed-loop workloads against the admission server, timed from
// mutation accepted to new admitted rates published. See README.md.
//
//	go run ./bench -seed 1                 every workload, each in its own process
//	go run ./bench -seed 1 -trace          the same plus each workload's traced run
//	go run ./bench -workload NAME -seed 1  one workload, in this process
//	go run ./bench -selfcheck 5            two interleaved sets of 5 runs, compared
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runSeconds is the nominal length of one measured phase on the 2-vCPU
// reference box, and run_seconds in BENCHMARK.json.
const runSeconds = 20

// stamp is the environment and provenance of one run, printed as the
// line before the result.
type stamp struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	Traced       bool    `json:"traced"`
	ScriptSHA256 string  `json:"script_sha256"`
	Decisions    int     `json:"decisions"`
	Calls        int     `json:"calls"`
	Iterations   int     `json:"iterations"`
	Trail        string  `json:"trail"`
	QuarterTrail string  `json:"quarter_trail"`
	Nproc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GOGC         string  `json:"gogc"`
	Go           string  `json:"go"`
	WallS        float64 `json:"wall_s"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// splitTrace lets -trace stand alone (the traced run) and also take the
// driver's separate 0|1 value, which a boolean flag would not consume.
func splitTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in-process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed of the mutation scripts")
	seconds := fs.Int("seconds", runSeconds, "nominal measured seconds per run; sizes the scripts' fixed op counts")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics instead of (with -workload) or after (without) the end-to-end ones")
	selfcheck := fs.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare their medians against the bounds")
	if err := fs.Parse(splitTrace(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments or -seconds < 1")
		return 2
	}
	// Two Ps whatever the box: one for the single-worker solver, one for
	// the client and the collector. More would only let the four shard
	// goroutines and background GC spread differently from run to run.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var err error
	switch {
	case *selfcheck > 0:
		err = selfCheck(*name, *selfcheck, *seed, *seconds)
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace)
	default:
		err = runAll(*seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// quarter is how many steps the traced run replays.
func quarter(s *script) int { return max(len(s.steps)/4, 1) }

// runOne runs one workload in this process and ends standard output
// with the stamp line and the result line. A run that finishes with
// failed checks still exits 0: the result line says correct=false.
func runOne(name string, seed int64, seconds int, trace bool) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("bench: unknown workload %q", name)
	}
	start := time.Now()
	inst, err := w.instance()
	if err != nil {
		return err
	}
	s, err := w.script(inst, seed, w.decisions(seconds))
	if err != nil {
		return err
	}
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	var out *outcome
	if trace {
		out, err = tracedRun(w, s, scratch)
	} else {
		out, err = endToEnd(w, s, scratch)
	}
	if err != nil {
		return err
	}
	st := stamp{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: trace,
		ScriptSHA256: s.sha, Decisions: len(s.steps), Calls: s.calls(),
		Iterations: out.pass.iterations, Trail: out.pass.trail, QuarterTrail: out.pass.quarter,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: gogc(), Go: runtime.Version(),
		WallS: time.Since(start).Seconds(),
	}
	fmt.Printf("%s seed=%d decisions=%d calls=%d traced=%v wall=%.1fs\n", w.name, seed, st.Decisions, st.Calls, trace, st.WallS)
	out.print(os.Stdout, defsFor(trace))
	if err := json.NewEncoder(os.Stdout).Encode(st); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// scratchDir makes the run's private directory under the working
// directory: the benchmark writes nowhere else.
func scratchDir() (string, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// childRun is what a child process reported.
type childRun struct {
	stamp   stamp
	outcome outcome
}

// runChild runs one workload in a fresh process — its own heap, its own
// peak RSS — forwards what it prints, and parses its last two lines.
func runChild(name string, seed int64, seconds int, trace bool, echo bool) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: %s: child: %w", name, err)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("bench: %s: child printed no result", name)
	}
	if echo {
		fmt.Println(strings.Join(lines[:len(lines)-2], "\n"))
	}
	var c childRun
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &c.stamp); err != nil {
		return nil, fmt.Errorf("bench: %s: child stamp: %w", name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.outcome); err != nil {
		return nil, fmt.Errorf("bench: %s: child result: %w", name, err)
	}
	return &c, nil
}

// runAll is the one command: every workload in its own child process,
// every metric printed by name with its unit, outputs checked, and one
// JSON report as the last line.
func runAll(seed int64, seconds int, trace bool) error {
	type entry struct {
		Stamp  stamp    `json:"stamp"`
		Result *outcome `json:"result"`
	}
	report := struct {
		Correct bool    `json:"correct"`
		WallS   float64 `json:"wall_s"`
		Runs    []entry `json:"runs"`
	}{Correct: true}
	start := time.Now()
	for _, w := range workloads {
		plain, err := runChild(w.name, seed, seconds, false, true)
		if err != nil {
			return err
		}
		report.Runs = append(report.Runs, entry{plain.stamp, &plain.outcome})
		report.Correct = report.Correct && plain.outcome.Correct
		if !trace {
			continue
		}
		tr, err := runChild(w.name, seed, seconds, true, true)
		if err != nil {
			return err
		}
		report.Runs = append(report.Runs, entry{tr.stamp, &tr.outcome})
		report.Correct = report.Correct && tr.outcome.Correct
		// Two processes, one seed: same script, and over the quarter both
		// played, the same iterations and utility bit for bit.
		if plain.stamp.ScriptSHA256 != tr.stamp.ScriptSHA256 || plain.stamp.QuarterTrail != tr.stamp.QuarterTrail {
			fmt.Printf("  ! %s: two runs of seed %d diverged: script %.12s vs %.12s, quarter trail %.12s vs %.12s\n",
				w.name, seed, plain.stamp.ScriptSHA256, tr.stamp.ScriptSHA256, plain.stamp.QuarterTrail, tr.stamp.QuarterTrail)
			report.Correct = false
		}
	}
	report.WallS = time.Since(start).Seconds()
	if err := json.NewEncoder(os.Stdout).Encode(report); err != nil {
		return err
	}
	if !report.Correct {
		return errors.New("bench: output checks failed")
	}
	return nil
}
