package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsSafe calls every method on a nil recorder.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.ServerMutation("set_rate", "c1")
	r.ServerSolve(1, true, 0.1, 2.5, 10)
	r.AdmissionFlip(1, "c1", true, 3, "")
	r.Divergence(5, "NaN")
	r.Span("t", "s", "", "solve", 0.25, nil)
	r.ShardAdvance(0, 0.1, 10, 3, true)
	r.BuildFootprint(0, 1<<20)
	r.PriceExchange(0.01)
	r.HTTPRequest("/v1/admitted", "GET", "/v1/admitted", 200, 1e-3, "")
	if r.Registry() != nil {
		t.Fatal("nil recorder must have nil registry")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledRecorderAllocates pins the acceptance criterion: the
// disabled (nil) recorder adds zero allocations per publish.
func TestDisabledRecorderAllocates(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Span("t", "s", "", "iterate", 0.25, nil)
		r.ServerSolve(1, true, 0.1, 2.5, 10)
		r.AdmissionFlip(1, "c1", false, 0, "")
		r.Divergence(1, "NaN")
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %v per publish, want 0", allocs)
	}
}

func TestRecorderEventsAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(nil, NewJSONLSink(&buf))
	r.Divergence(1, "cost non-finite")
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
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	if e := events[0]; e.Type != EventDivergence || e.Alg != "server" || e.Iter != 1 || e.Reason == "" {
		t.Fatalf("bad divergence event: %+v", e)
	}
	if got := r.Registry().Counter("streamopt_divergence_total", "").Value(); got != 1 {
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
	r.ServerSolve(1, true, 0.1, 2.5, 10)
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
	if e.Type != EventServerSolve {
		t.Fatalf("event type = %q, want server_solve", e.Type)
	}
}

// serveAttached serves the Attach endpoints of reg on a test listener,
// the way the admission server mounts them on its own mux.
func serveAttached(t *testing.T, reg *Registry) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	Attach(mux, reg)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exposition_test_total", "a test counter").Add(3)
	srv := serveAttached(t, reg)

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
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

	if out := get("/metrics"); !strings.Contains(out, "exposition_test_total 3") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	// /metrics is the registry's one encoding: no expvar mirror.
	resp, err := http.Get(srv.URL + "/debug/vars")
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

// TestRolesRegisterAtFirstWrite: a recorder registers nothing until
// the server's first write, and then the server's whole set, so its
// counters read 0 before their first increment.
func TestRolesRegisterAtFirstWrite(t *testing.T) {
	r := NewRecorder(nil, nil)
	if got := families(t, r.Registry()); len(got) != 0 {
		t.Fatalf("fresh recorder exposes %v, want nothing", got)
	}

	r.ServerSolve(1, false, 0.1, 2.5, 10)
	server := []string{
		"streamopt_server_generation", "streamopt_server_utility", "streamopt_server_solves_total",
		"streamopt_admission_flips_total", "streamopt_divergence_total",
	}
	if got := families(t, r.Registry()); strings.Join(got, " ") != strings.Join(server, " ") {
		t.Fatalf("after one server write: %v, want %v", got, server)
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
	if got := reg.Counter("streamopt_divergence_total", "").Value(); got != 0 {
		t.Errorf("streamopt_divergence_total = %d, want 0", got)
	}

	// Writers on several goroutines may meet the set's first write
	// together: every write still lands in the one set.
	r = NewRecorder(nil, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.AdmissionFlip(int64(i), "c1", true, 1, "")
				r.ServerSolve(int64(i), true, 0, 0, 0)
			}
		}()
	}
	wg.Wait()
	reg = r.Registry()
	if got := reg.Counter("streamopt_admission_flips_total", "", "to", "admitted").Value(); got != 400 {
		t.Errorf("admitted flips = %d, want 400", got)
	}
	if got := reg.Counter("streamopt_server_solves_total", "", "start", "warm").Value(); got != 400 {
		t.Errorf("warm solves = %d, want 400", got)
	}
}

// TestEnabledRecorderPerPublishAllocs: with the server set registered,
// a metrics-only recorder's per-publish writes are cached-pointer
// updates — no registry lookup, no allocation.
func TestEnabledRecorderPerPublishAllocs(t *testing.T) {
	r := NewRecorder(nil, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		r.ServerSolve(1, true, 0.1, 2.5, 10)
		r.AdmissionFlip(1, "c1", true, 3, "")
	})
	if allocs != 0 {
		t.Fatalf("metrics-only recorder allocated %v per publish, want 0", allocs)
	}
	if got := r.Registry().Counter("streamopt_server_solves_total", "", "start", "warm").Value(); got != 1001 {
		t.Fatalf("warm solves counter = %d, want 1001", got)
	}
}
