package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleRun = `goos: linux
goarch: amd64
pkg: repro
BenchmarkFlowEvaluate-8            	     100	     12345 ns/op	    2048 B/op	      30 allocs/op
BenchmarkMarginalCostWave-8        	      50	     23456.5 ns/op
BenchmarkTransformBuild            	      10	    111222 ns/op	   99999 B/op	     500 allocs/op
BenchmarkStepSparse/J=1k-2         	     300	    364287 ns/op	        26.02 ns/member-edge	       0 B/op	       0 allocs/op
PASS
ok  	repro	1.234s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(got), got)
	}
	// A custom metric column between ns/op and B/op is skipped.
	if ss := got["BenchmarkStepSparse/J=1k"]; ss.NsPerOp != 364287 || ss.AllocsPerOp != 0 {
		t.Fatalf("StepSparse/J=1k = %+v", ss)
	}
	fe := got["BenchmarkFlowEvaluate"]
	if fe.NsPerOp != 12345 || fe.AllocsPerOp != 30 {
		t.Fatalf("FlowEvaluate = %+v", fe)
	}
	// No -benchmem columns: allocs unknown, marked -1.
	if mw := got["BenchmarkMarginalCostWave"]; mw.NsPerOp != 23456.5 || mw.AllocsPerOp != -1 {
		t.Fatalf("MarginalCostWave = %+v", mw)
	}
	// No GOMAXPROCS suffix.
	if tb := got["BenchmarkTransformBuild"]; tb.NsPerOp != 111222 {
		t.Fatalf("TransformBuild = %+v", tb)
	}
}

// run invokes realMain with the given stdin content and returns the
// exit code plus captured stdout+stderr.
func run(t *testing.T, cfg cliConfig, stdin string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	cfg.stdin = strings.NewReader(stdin)
	cfg.stdout, cfg.stderr = &out, &out
	if cfg.in == "" {
		cfg.in = "-"
	}
	code, err := realMain(cfg)
	if err != nil {
		t.Fatalf("realMain: %v\n%s", err, out.String())
	}
	return code, out.String()
}

func TestUpdateThenCompareClean(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "base.json")
	code, out := run(t, cliConfig{baseline: baseline, update: true, tolerance: 3, allocTol: 0.25}, sampleRun)
	if code != 0 {
		t.Fatalf("update exit %d: %s", code, out)
	}
	// Identical run: everything within tolerance, exit 0.
	code, out = run(t, cliConfig{baseline: baseline, tolerance: 3, allocTol: 0.25}, sampleRun)
	if code != 0 {
		t.Fatalf("clean compare exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "within tolerance") {
		t.Fatalf("missing summary:\n%s", out)
	}
}

func TestNsRegressionFails(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "base.json")
	run(t, cliConfig{baseline: baseline, update: true}, sampleRun)

	slow := strings.Replace(sampleRun, "12345 ns/op", "99999999 ns/op", 1)
	code, out := run(t, cliConfig{baseline: baseline, tolerance: 3, allocTol: 0.25}, slow)
	if code != 1 {
		t.Fatalf("regression exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION: ns/op") {
		t.Fatalf("regression not reported:\n%s", out)
	}

	// Same regression under -warn-only: reported but exit 0.
	code, out = run(t, cliConfig{baseline: baseline, tolerance: 3, allocTol: 0.25, warnOnly: true}, slow)
	if code != 0 {
		t.Fatalf("-warn-only exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "not failing the build") {
		t.Fatalf("warn-only note missing:\n%s", out)
	}
}

func TestAllocRegressionFails(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "base.json")
	run(t, cliConfig{baseline: baseline, update: true}, sampleRun)

	leaky := strings.Replace(sampleRun, "30 allocs/op", "300 allocs/op", 1)
	code, out := run(t, cliConfig{baseline: baseline, tolerance: 3, allocTol: 0.25}, leaky)
	if code != 1 {
		t.Fatalf("alloc regression exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION: allocs/op") {
		t.Fatalf("alloc regression not reported:\n%s", out)
	}
}

func TestNewAndMissingBenchmarks(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "base.json")
	run(t, cliConfig{baseline: baseline, update: true}, sampleRun)

	extra := sampleRun + "BenchmarkBrandNew-8 \t 10 \t 5 ns/op\n"
	renamed := strings.Replace(sampleRun, "BenchmarkFlowEvaluate-8", "BenchmarkFlowEvaluateV2-8", 1)
	twoGone := strings.Replace(
		strings.Replace(sampleRun, "BenchmarkTransformBuild ", "BenchmarkTransformBuildV2 ", 1),
		"BenchmarkFlowEvaluate-8", "BenchmarkFlowEvaluateV2-8", 1)
	const gone = "BenchmarkFlowEvaluate in baseline but missing from run"

	cases := []struct {
		name     string
		input    string
		warnOnly bool
		code     int
		want     []string // in this order
	}{
		// A new name is informational and never fails the build.
		{"new only", extra, false, 0, []string{"new (not in baseline)", "within tolerance"}},
		// A baselined name that vanished (here: renamed) is a regression,
		// or the gate would silently stop covering it.
		{"renamed", renamed, false, 1, []string{"new (not in baseline)", gone, "1 regression(s)"}},
		{"renamed, warn-only", renamed, true, 0, []string{gone, "not failing the build"}},
		// Several vanished names print sorted, not in map order.
		{"two gone", twoGone, false, 1, []string{gone, "BenchmarkTransformBuild in baseline", "2 regression(s)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := run(t, cliConfig{baseline: baseline, tolerance: 3, allocTol: 0.25, warnOnly: tc.warnOnly}, tc.input)
			if code != tc.code {
				t.Fatalf("exit %d, want %d:\n%s", code, tc.code, out)
			}
			at := 0
			for _, want := range tc.want {
				i := strings.Index(out[at:], want)
				if i < 0 {
					t.Fatalf("missing %q (after offset %d):\n%s", want, at, out)
				}
				at += i + len(want)
			}
		})
	}

	// -update is the fix: the baseline then names exactly what ran.
	run(t, cliConfig{baseline: baseline, update: true}, renamed)
	if code, out := run(t, cliConfig{baseline: baseline, tolerance: 3, allocTol: 0.25}, renamed); code != 0 {
		t.Fatalf("after -update exit %d, want 0:\n%s", code, out)
	}
}

func TestBaselineFileIsValid(t *testing.T) {
	// The checked-in baseline must parse and cover the repo's benchmarks.
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatalf("checked-in baseline missing: %v", err)
	}
	var dec struct {
		Benchmarks map[string]Bench `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatal(err)
	}
	if len(dec.Benchmarks) < 20 {
		t.Fatalf("baseline has only %d benchmarks", len(dec.Benchmarks))
	}
	for name, b := range dec.Benchmarks {
		if b.NsPerOp <= 0 {
			t.Fatalf("%s has non-positive ns/op %g", name, b.NsPerOp)
		}
	}
}
