package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/randnet"
)

func writeInstance(t *testing.T) string {
	t.Helper()
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 12, Commodities: 2, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "instance.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// base returns the flag defaults used by most tests.
func base(in, alg string, iters int) cliConfig {
	return cliConfig{in: in, alg: alg, iters: iters, eta: 0.04, eps: 0.2}
}

func TestRealMainGradient(t *testing.T) {
	cfg := base(writeInstance(t), "gradient", 200)
	cfg.ref = true
	cfg.topN = 3
	if err := realMain(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRealMainReference(t *testing.T) {
	if err := realMain(base(writeInstance(t), "reference", 0)); err != nil {
		t.Fatal(err)
	}
}

// TestRealMainTrace: -trace -sample prints every sample-th iteration and
// the last one.
func TestRealMainTrace(t *testing.T) {
	cfg := base(writeInstance(t), "gradient", 500)
	cfg.trace = true
	cfg.sample = 100
	out := captureStdout(t, func() error { return realMain(cfg) })
	_, table, ok := strings.Cut(out, "\niter")
	if !ok {
		t.Fatalf("no trace table:\n%s", out)
	}
	var iters []int
	for _, line := range strings.Split(table, "\n")[1:] {
		var it int
		if _, err := fmt.Sscanf(line, "%d", &it); err == nil {
			iters = append(iters, it)
		}
	}
	if fmt.Sprint(iters) != "[0 100 200 300 400 499]" {
		t.Fatalf("traced iterations %v, want [0 100 200 300 400 499]", iters)
	}
}

func TestRealMainErrors(t *testing.T) {
	if err := realMain(base("", "gradient", 0)); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := realMain(base("/nonexistent.json", "gradient", 0)); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := realMain(base(writeInstance(t), "quantum", 10)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestRealMainObservability is the acceptance path of -trace-out: it
// writes the convergence trace as valid JSONL.
func TestRealMainObservability(t *testing.T) {
	cfg := base(writeInstance(t), "gradient", 150)
	cfg.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
	if err := realMain(cfg); err != nil {
		t.Fatal(err)
	}

	tf, err := os.Open(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	lines := 0
	sc := bufio.NewScanner(tf)
	for sc.Scan() {
		var tp tracePoint
		if err := json.Unmarshal(sc.Bytes(), &tp); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("trace-out is empty")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var sb strings.Builder
		_, _ = bufio.NewReader(r).WriteTo(&sb)
		done <- sb.String()
	}()
	ferr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	if ferr != nil {
		t.Fatalf("realMain: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// TestRealMainExplain: -explain prints the attribution table with the
// admission marginals and a named bottleneck column.
func TestRealMainExplain(t *testing.T) {
	cfg := base(writeInstance(t), "gradient", 1500)
	cfg.explain = true
	out := captureStdout(t, func() error { return realMain(cfg) })
	for _, want := range []string{"bottleneck", "U'(a)", "path cost", "gap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-explain output missing %q:\n%s", want, out)
		}
	}

	// The reference has no flow evaluation to attribute.
	cfg = base(writeInstance(t), "reference", 0)
	cfg.explain = true
	out = captureStdout(t, func() error { return realMain(cfg) })
	if !strings.Contains(out, "no attribution") {
		t.Fatalf("-explain on reference should say no attribution:\n%s", out)
	}
}
