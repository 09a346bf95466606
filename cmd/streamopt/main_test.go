package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
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

func TestRealMainValidate(t *testing.T) {
	path := writeInstance(t)
	cfg := base(path, "gradient", 500)
	cfg.validate = true
	if err := realMain(cfg); err != nil {
		t.Fatal(err)
	}
	// -validate is gradient-only.
	cfg = base(path, "reference", 0)
	cfg.validate = true
	if err := realMain(cfg); err == nil {
		t.Fatal("-validate accepted for reference")
	}
	// The replay validates the plan -alg asked for: backtracking tames
	// a hostile -eta that fixed-η iteration turns into a plan admitting
	// nothing, so the simulator must deliver what the solve admitted.
	cfg = base(path, "gradient-adaptive", 500)
	cfg.eta = 50
	cfg.validate = true
	out := captureStdout(t, func() error { return realMain(cfg) })
	var delivered, dropped, admitted float64
	for _, name := range []string{"S1", "S2"} {
		var d, a float64
		for _, line := range strings.Split(out, "\n") {
			if _, err := fmt.Sscanf(line, "  "+name+": delivered %f/tick, dropped %f/tick", &d, &dropped); err == nil {
				delivered += d
			}
			if _, err := fmt.Sscanf(line, name+" %f", &a); err == nil {
				admitted += a
			}
		}
	}
	if admitted <= 0 || math.Abs(delivered-admitted) > 0.05*admitted {
		t.Fatalf("replay delivered %g/tick of the %g admitted by -alg gradient-adaptive -eta 50\n%s", delivered, admitted, out)
	}
}

// TestRealMainObservability is the acceptance path: events-out gets one
// valid JSON iteration event per iteration, trace-out gets valid JSONL,
// and /metrics is scrapeable.
func TestRealMainObservability(t *testing.T) {
	dir := t.TempDir()
	cfg := base(writeInstance(t), "gradient", 150)
	cfg.eventsOut = filepath.Join(dir, "events.jsonl")
	cfg.traceOut = filepath.Join(dir, "trace.jsonl")
	cfg.metricsAddr = "127.0.0.1:0"
	if err := realMain(cfg); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(cfg.eventsOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	iters := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid event line %q: %v", sc.Text(), err)
		}
		if e.Type == obs.EventIteration {
			iters++
		}
	}
	if iters != 150 {
		t.Fatalf("got %d iteration events, want 150", iters)
	}

	tf, err := os.Open(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	lines := 0
	sc = bufio.NewScanner(tf)
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

// TestMetricsScrapeDuringSolve checks a live scrape against a server the
// same way realMain wires it.
func TestMetricsScrapeDuringSolve(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	srv, err := obs.Serve("127.0.0.1:0", rec.Registry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec.Iteration("gradient", 1, 3.5, 1.0, []float64{1, 2}, true)
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "streamopt_iterations_total 1") {
		t.Fatalf("metrics scrape missing iteration counter:\n%s", sb.String())
	}
}
