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
	"sync"
	"testing"
)

// TestNilRecorderIsSafe calls every method on a nil recorder.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Iteration("gradient", 0, 1, 2, []float64{3}, true)
	r.Protocol("dist", 0, 10, 2)
	r.Blocking("gradient", 0, 1)
	r.Divergence("gradient", 5, "NaN")
	r.SetEta(0.04)
	r.Backtrack()
	r.Span("t", "s", "", "solve", 0.25, nil)
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
		r.Span("t", "s", "", "iterate", 0.25, nil)
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
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
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

// TestSpanObservesStage pins the one stage vocabulary: a finished span
// lands in streamopt_stage_seconds under its own name, and observing a
// stage already seen allocates nothing beyond the event.
func TestSpanObservesStage(t *testing.T) {
	r := NewRecorder(nil, nil)
	r.Span("t", "a", "", "iterate", 0.5, nil)
	r.Span("t", "b", "a", "iterate", 0.25, nil)
	r.Span("t", "c", "", "publish", 1e-3, nil)
	reg := r.Registry()
	h := reg.Histogram("streamopt_stage_seconds", "", nil, "stage", "iterate")
	if h.Count() != 2 || h.Sum() != 0.75 {
		t.Fatalf("iterate stage: count %d sum %g, want 2 and 0.75", h.Count(), h.Sum())
	}
	if got := reg.Histogram("streamopt_stage_seconds", "", nil, "stage", "publish").Count(); got != 1 {
		t.Fatalf("publish stage count = %d, want 1", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Span("t", "d", "", "iterate", 0.1, nil) }); allocs != 0 {
		t.Fatalf("observing a known stage allocated %v times, want 0", allocs)
	}

	// Spans end on several goroutines (the HTTP handler ends ingress,
	// the solver the rest), which may meet a stage's first span
	// together: every observation still lands in the one series.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Span("t", "e", "", "coalesce", 1e-3, nil)
			}
		}()
	}
	wg.Wait()
	if got := reg.Histogram("streamopt_stage_seconds", "", nil, "stage", "coalesce").Count(); got != 400 {
		t.Fatalf("coalesce stage count = %d, want 400", got)
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
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	// /metrics is the registry's one encoding: no expvar mirror.
	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars: status %d, want 404", resp.StatusCode)
	}
}

// families lists the metric families a registry exposes, in order.
func families(t *testing.T, reg *Registry) []string {
	t.Helper()
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(prom.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, strings.Fields(rest)[0])
		}
	}
	return out
}

// TestRolesRegisterAtFirstWrite: a recorder registers nothing until a
// role writes, and then that role's whole set, so its counters read 0
// before their first increment and no other role's series appear.
func TestRolesRegisterAtFirstWrite(t *testing.T) {
	r := NewRecorder(nil, nil)
	if got := families(t, r.Registry()); len(got) != 0 {
		t.Fatalf("fresh recorder exposes %v, want nothing", got)
	}

	r.SetEta(0.04)
	engine := []string{
		"streamopt_iterations_total", "streamopt_utility", "streamopt_cost", "streamopt_feasible",
		"streamopt_protocol_messages_total", "streamopt_adaptive_backtracks_total", "streamopt_eta",
	}
	if got := families(t, r.Registry()); strings.Join(got, " ") != strings.Join(engine, " ") {
		t.Fatalf("after one engine write: %v, want %v", got, engine)
	}

	r.ServerSolve(1, false, 0.1, 2.5, 10)
	server := []string{
		"streamopt_server_generation", "streamopt_server_utility", "streamopt_server_solves_total",
		"streamopt_admission_flips_total", "streamopt_divergence_total",
	}
	if got := families(t, r.Registry()); strings.Join(got, " ") != strings.Join(append(engine, server...), " ") {
		t.Fatalf("after one server write: %v, want %v", got, append(engine, server...))
	}
	reg := r.Registry()
	for _, c := range []struct {
		name, k, v string
		want       uint64
	}{
		{"streamopt_server_solves_total", "start", "cold", 1},
		{"streamopt_server_solves_total", "start", "warm", 0},
		{"streamopt_admission_flips_total", "to", "admitted", 0},
		{"streamopt_admission_flips_total", "to", "rejected", 0},
	} {
		if got := reg.Counter(c.name, "", c.k, c.v).Value(); got != c.want {
			t.Errorf("%s{%s=%q} = %d, want %d", c.name, c.k, c.v, got, c.want)
		}
	}

	// Writers on several goroutines may meet a role's first write
	// together: every write still lands in the one set.
	r = NewRecorder(nil, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Backtrack()
				r.ServerSolve(int64(i), true, 0, 0, 0)
			}
		}()
	}
	wg.Wait()
	reg = r.Registry()
	if got := reg.Counter("streamopt_adaptive_backtracks_total", "").Value(); got != 400 {
		t.Errorf("backtracks = %d, want 400", got)
	}
	if got := reg.Counter("streamopt_server_solves_total", "", "start", "warm").Value(); got != 400 {
		t.Errorf("warm solves = %d, want 400", got)
	}
}

// TestEnabledRecorderPerIterationAllocs: with the engine set registered,
// a metrics-only recorder's per-iteration writes are cached-pointer
// updates — no registry lookup, no allocation.
func TestEnabledRecorderPerIterationAllocs(t *testing.T) {
	r := NewRecorder(nil, nil)
	admitted := []float64{1, 2, 3}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Iteration("gradient", 1, 2, 3, admitted, true)
		r.Protocol("gradient", 1, 4, 2)
		r.SetEta(0.04)
		r.Backtrack()
	})
	if allocs != 0 {
		t.Fatalf("metrics-only recorder allocated %v per iteration, want 0", allocs)
	}
	if got := r.Registry().Counter("streamopt_iterations_total", "").Value(); got != 1001 {
		t.Fatalf("iterations counter = %d, want 1001", got)
	}
}
