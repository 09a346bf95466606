package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNilRecorderIsSafe calls every method on a nil recorder.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder must report disabled")
	}
	r.Iteration("gradient", 0, 1, 2, []float64{3}, true)
	r.Protocol("dist", 0, 10, 2)
	r.Blocking("gradient", 0, 1)
	r.Divergence("gradient", 5, "NaN")
	r.SetEta(0.04)
	r.Backtrack()
	r.QsimTick(1, 2, 3, 4)
	r.QsimSummary(100, 1, 2, 3)
	tm := r.StartPhase(PhaseForecast)
	tm.Done()
	if r.Registry() != nil {
		t.Fatal("nil recorder must have nil registry")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledRecorderAllocates pins the acceptance criterion: the
// disabled (nil) recorder adds zero allocations per iteration.
func TestDisabledRecorderAllocates(t *testing.T) {
	var r *Recorder
	admitted := []float64{1, 2, 3}
	allocs := testing.AllocsPerRun(1000, func() {
		tm := r.StartPhase(PhaseForecast)
		tm.Done()
		r.Iteration("gradient", 1, 2, 3, admitted, true)
		r.Protocol("gradient", 1, 4, 2)
		r.Blocking("gradient", 1, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %v per iteration, want 0", allocs)
	}
}

func TestRecorderEventsAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(nil, NewJSONLSink(&buf))
	r.Iteration("gradient", 0, 10.5, 3.25, []float64{1, 2}, true)
	r.Iteration("gradient", 1, 11, 3, []float64{1.5, 2}, false)
	r.Protocol("gradient", 1, 20, 4)
	r.Blocking("gradient", 1, 2)
	r.Divergence("gradient", 1, "cost non-finite")
	r.QsimTick(10, 5, 1, 0.5)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	it := events[0]
	if it.Type != EventIteration || it.Utility != 10.5 || it.Cost != 3.25 ||
		len(it.Admitted) != 2 || it.Feasible == nil || !*it.Feasible {
		t.Fatalf("bad iteration event: %+v", it)
	}
	if events[1].Feasible == nil || *events[1].Feasible {
		t.Fatalf("second iteration should be infeasible: %+v", events[1])
	}
	if events[2].Type != EventProtocol || events[2].Messages != 20 || events[2].Rounds != 4 {
		t.Fatalf("bad protocol event: %+v", events[2])
	}
	if events[4].Type != EventDivergence || events[4].Reason == "" {
		t.Fatalf("bad divergence event: %+v", events[4])
	}

	reg := r.Registry()
	if got := reg.Counter("streamopt_iterations_total", "").Value(); got != 2 {
		t.Fatalf("iterations counter = %d, want 2", got)
	}
	if got := reg.Gauge("streamopt_utility", "").Value(); got != 11 {
		t.Fatalf("utility gauge = %g, want 11", got)
	}
	// Admitted rates ride the iteration event, not J metric series.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), `commodity="`) {
		t.Fatalf("per-commodity series in the exposition:\n%s", prom.String())
	}
	if got := reg.Counter("streamopt_protocol_messages_total", "").Value(); got != 20 {
		t.Fatalf("messages counter = %d, want 20", got)
	}
	if got := reg.Counter("streamopt_divergence_total", "").Value(); got != 1 {
		t.Fatalf("divergence counter = %d, want 1", got)
	}
}

func TestPhaseTimingObserves(t *testing.T) {
	r := NewRecorder(nil, nil)
	tm := r.StartPhase(PhaseMarginal)
	tm.Done()
	h := r.Registry().Histogram("streamopt_step_phase_seconds", "", DefaultTimeBuckets,
		"phase", "marginal")
	if h.Count() != 1 {
		t.Fatalf("phase histogram count = %d, want 1", h.Count())
	}
}

func TestFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(nil, sink)
	r.Iteration("gradient", 0, 1, 2, nil, true)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := json.Unmarshal(bytes.TrimSpace(data), &e); err != nil {
		t.Fatalf("file sink wrote invalid JSON %q: %v", data, err)
	}
	if e.Type != EventIteration {
		t.Fatalf("event type = %q, want iteration", e.Type)
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("streamopt_iterations_total", "iterations").Add(3)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "streamopt_iterations_total 3") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "streamopt") {
		t.Errorf("/debug/vars missing registry mirror:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}
