package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsSafe calls every method on a nil recorder.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.ServerSolve(1, true, 2.5)
	r.AdmissionFlip(true)
	r.Divergence()
	r.Span("solve", 0.25)
	r.ShardAdvance(0, 0.1, 10, 3, true)
	r.BuildFootprint(0, 1<<20)
	r.PriceExchange(0.01)
	r.HTTPRequest("/v1/admitted", 200, 1e-3)
	if r.Registry() != nil {
		t.Fatal("nil recorder must have nil registry")
	}
}

// TestDisabledRecorderAllocates pins the acceptance criterion: the
// disabled (nil) recorder adds zero allocations per publish.
func TestDisabledRecorderAllocates(t *testing.T) {
	var r *Recorder
	allocs := mallocs(1000, func() {
		r.Span("iterate", 0.25)
		r.ServerSolve(1, true, 2.5)
		r.AdmissionFlip(false)
		r.Divergence()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %d times in 1000 publishes, want 0", allocs)
	}
}

func TestRecorderEventsAndMetrics(t *testing.T) {
	r := NewRecorder(nil)
	r.Divergence()
	if got := r.Registry().Counter("streamopt_divergence_total", "").Value(); got != 1 {
		t.Fatalf("divergence counter = %d, want 1", got)
	}
}

// TestSpanObservesStage pins the one stage vocabulary: a finished span
// lands in streamopt_stage_seconds under its own name, and observing a
// stage already seen allocates nothing.
func TestSpanObservesStage(t *testing.T) {
	r := NewRecorder(nil)
	r.Span("iterate", 0.5)
	r.Span("iterate", 0.25)
	r.Span("publish", 1e-3)
	reg := r.Registry()
	h := reg.Histogram("streamopt_stage_seconds", "", nil, "stage", "iterate")
	if h.Count() != 2 || h.Sum() != 0.75 {
		t.Fatalf("iterate stage: count %d sum %g, want 2 and 0.75", h.Count(), h.Sum())
	}
	if got := reg.Histogram("streamopt_stage_seconds", "", nil, "stage", "publish").Count(); got != 1 {
		t.Fatalf("publish stage count = %d, want 1", got)
	}
	if n := mallocs(100, func() { r.Span("iterate", 0.1) }); n != 0 {
		t.Fatalf("observing a known stage allocated %d times in 100 runs, want 0", n)
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
				r.Span("coalesce", 1e-3)
			}
		}()
	}
	wg.Wait()
	if got := reg.Histogram("streamopt_stage_seconds", "", nil, "stage", "coalesce").Count(); got != 400 {
		t.Fatalf("coalesce stage count = %d, want 400", got)
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
	r := NewRecorder(nil)
	if got := families(t, r.Registry()); len(got) != 0 {
		t.Fatalf("fresh recorder exposes %v, want nothing", got)
	}

	r.ServerSolve(1, false, 2.5)
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
	r = NewRecorder(nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.AdmissionFlip(true)
				r.ServerSolve(int64(i), true, 0)
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
	r := NewRecorder(nil)
	allocs := mallocs(1000, func() {
		r.ServerSolve(1, true, 2.5)
		r.AdmissionFlip(true)
	})
	if allocs != 0 {
		t.Fatalf("metrics-only recorder allocated %d times in 1000 publishes, want 0", allocs)
	}
	if got := r.Registry().Counter("streamopt_server_solves_total", "", "start", "warm").Value(); got != 1001 {
		t.Fatalf("warm solves counter = %d, want 1001", got)
	}
}

// mallocs counts the heap allocations of runs calls of f after one
// warm-up call, at GOMAXPROCS 1 as testing.AllocsPerRun measures, in
// total: AllocsPerRun's integer mean reads a few allocations spread
// over many runs as 0. A full GC after the warm-up call keeps a cycle
// the warm-up started from allocating inside the measured window.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
