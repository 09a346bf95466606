// Command benchdiff compares a `go test -bench` run against a
// checked-in baseline and exits nonzero when a benchmark regressed
// beyond tolerance — the repo's benchmark-regression gate.
//
//	go test -run='^$' -bench=. -benchtime=1x -benchmem . | go run ./cmd/benchdiff
//	go test -run='^$' -bench=. -benchtime=1x -benchmem . | go run ./cmd/benchdiff -update
//
// The baseline (BENCH_baseline.json) stores ns/op and allocs/op per
// benchmark. ns/op at -benchtime=1x is noisy, so its default tolerance
// is generous (a 4× slowdown fails, anything less passes); allocs/op is
// near-deterministic and gets a tight default. New benchmarks are
// reported but never fail. A baselined benchmark missing from the run
// counts as a regression, so a deleted or renamed benchmark cannot
// leave the gate silently: the change that removes it also removes its
// baseline entry (or reruns -update). -warn-only downgrades regressions
// to warnings (exit 0) for PR builds, while nightly runs keep the hard
// gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Bench is one benchmark's stored (or measured) result. AllocsPerOp is
// -1 when the run did not report allocations (no -benchmem and no
// b.ReportAllocs).
type Bench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the schema of BENCH_baseline.json.
type Baseline struct {
	// Benchtime documents how the stored numbers were produced; the
	// comparison is only meaningful against runs using the same value.
	Benchtime  string           `json:"benchtime"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

type cliConfig struct {
	baseline  string
	in        string
	tolerance float64
	allocTol  float64
	update    bool
	warnOnly  bool

	stdin  io.Reader
	stdout io.Writer
	stderr io.Writer
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.baseline, "baseline", "BENCH_baseline.json", "baseline file to compare against (and rewrite with -update)")
	flag.StringVar(&cfg.in, "in", "-", "benchmark output to read (- = stdin)")
	flag.Float64Var(&cfg.tolerance, "tolerance", 3.0, "allowed fractional ns/op increase (3.0 = up to 4x the baseline passes)")
	flag.Float64Var(&cfg.allocTol, "alloc-tolerance", 0.25, "allowed fractional allocs/op increase")
	flag.BoolVar(&cfg.update, "update", false, "rewrite the baseline from this run instead of comparing")
	flag.BoolVar(&cfg.warnOnly, "warn-only", false, "report regressions but exit 0 (PR builds)")
	flag.Parse()
	cfg.stdin, cfg.stdout, cfg.stderr = os.Stdin, os.Stdout, os.Stderr
	code, err := realMain(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// benchLine matches `go test -bench` result lines:
//
//	BenchmarkName-8   123   45678 ns/op   90 B/op   12 allocs/op
//
// The GOMAXPROCS suffix, B/op and allocs/op are optional, and custom
// b.ReportMetric columns (which go test prints between ns/op and B/op)
// are skipped.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.e+-]+ [^\sB]\S*)*(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

// parseBench extracts benchmark results from `go test -bench` output.
func parseBench(r io.Reader) (map[string]Bench, error) {
	out := map[string]Bench{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		b := Bench{NsPerOp: ns, AllocsPerOp: -1}
		if m[4] != "" {
			if b.AllocsPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
			}
		}
		out[m[1]] = b
	}
	return out, sc.Err()
}

func realMain(cfg cliConfig) (int, error) {
	in := cfg.stdin
	if cfg.in != "-" {
		f, err := os.Open(cfg.in)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		in = f
	}
	run, err := parseBench(in)
	if err != nil {
		return 0, err
	}
	if len(run) == 0 {
		return 0, fmt.Errorf("no benchmark lines in input")
	}

	if cfg.update {
		base := Baseline{Benchtime: "1x", Benchmarks: run}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(cfg.baseline, append(data, '\n'), 0o644); err != nil {
			return 0, err
		}
		fmt.Fprintf(cfg.stdout, "benchdiff: wrote %d benchmarks to %s\n", len(run), cfg.baseline)
		return 0, nil
	}

	data, err := os.ReadFile(cfg.baseline)
	if err != nil {
		return 0, fmt.Errorf("no baseline (run with -update to create one): %w", err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return 0, fmt.Errorf("parse %s: %w", cfg.baseline, err)
	}

	names := make([]string, 0, len(run))
	for name := range run {
		names = append(names, name)
	}
	sort.Strings(names)

	regressions := 0
	w := cfg.stdout
	fmt.Fprintf(w, "%-34s %14s %14s %8s  %s\n", "benchmark", "base ns/op", "cur ns/op", "ratio", "status")
	for _, name := range names {
		cur := run[name]
		ref, ok := base.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-34s %14s %14.0f %8s  new (not in baseline)\n", name, "-", cur.NsPerOp, "-")
			continue
		}
		ratio := cur.NsPerOp / ref.NsPerOp
		status := "ok"
		if cur.NsPerOp > ref.NsPerOp*(1+cfg.tolerance) {
			status = fmt.Sprintf("REGRESSION: ns/op %.1fx > allowed %.1fx", ratio, 1+cfg.tolerance)
			regressions++
		}
		if cur.AllocsPerOp >= 0 && ref.AllocsPerOp >= 0 &&
			cur.AllocsPerOp > ref.AllocsPerOp*(1+cfg.allocTol) {
			status = fmt.Sprintf("REGRESSION: allocs/op %.0f > allowed %.0f",
				cur.AllocsPerOp, ref.AllocsPerOp*(1+cfg.allocTol))
			regressions++
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %8.2f  %s\n", name, ref.NsPerOp, cur.NsPerOp, ratio, status)
	}
	var missing []string
	for name := range base.Benchmarks {
		if _, ok := run[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(cfg.stderr, "benchdiff: REGRESSION: %s in baseline but missing from run\n", name)
	}
	regressions += len(missing)

	if regressions > 0 {
		fmt.Fprintf(cfg.stderr, "benchdiff: %d regression(s) beyond tolerance\n", regressions)
		if cfg.warnOnly {
			fmt.Fprintln(cfg.stderr, "benchdiff: -warn-only set; not failing the build")
			return 0, nil
		}
		return 1, nil
	}
	fmt.Fprintf(w, "benchdiff: %d benchmarks within tolerance\n", len(run))
	return 0, nil
}
