package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/span"
)

// traced is testOptions(rec) with decision-span tracing into a ring of
// spanCap spans, on shards shards.
func traced(rec *obs.Recorder, spanCap, shards int) Options {
	opts := testOptions(rec)
	opts.Spans, opts.Shards = span.New(spanCap, rec), shards
	return opts
}

const clientTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// TestDecisionLifecycleSpans is the acceptance demo as a test: POST a
// rate mutation carrying a W3C traceparent, then read back the full
// ingress → coalesce → solve-phases → publish tree from /debug/spans
// under the client's trace ID, with decision latency populated. The
// tree has the same stages at every shard count.
func TestDecisionLifecycleSpans(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testDecisionLifecycleSpans(t, shards) })
	}
}

func testDecisionLifecycleSpans(t *testing.T, shards int) {
	rec := obs.NewRecorder(obs.NewRegistry())
	opts := traced(rec, 256, shards)
	s, ts := start(t, opts)
	tr := opts.Spans

	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("PATCH", ts.URL+"/v1/commodities/c1",
		strings.NewReader(`{"maxRate": 12}`)) // past capacity: the re-solve has to move
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", clientTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH status = %d", resp.StatusCode)
	}
	if _, err := s.WaitForGeneration(first.Generation+1, waitBudget); err != nil {
		t.Fatal(err)
	}

	const wantTrace = "0af7651916cd43dd8448eb211c80319c"
	resp, body := doReq(t, "GET", ts.URL+"/debug/spans?trace="+wantTrace, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/spans status = %d: %s", resp.StatusCode, body)
	}
	var page struct {
		Spans []span.Span `json:"spans"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	byName := map[string]span.Span{}
	for _, sp := range page.Spans {
		if sp.Trace != wantTrace {
			t.Errorf("span %s carries trace %s, want %s", sp.Name, sp.Trace, wantTrace)
		}
		byName[sp.Name] = sp
	}
	for _, name := range []string{"decision", "ingress", "coalesce", "solve", "build", "engine_init", "iterate", "assemble", "publish"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing %q span in trace (got %d spans)", name, len(page.Spans))
		}
	}
	if t.Failed() {
		t.Fatalf("spans: %+v", page.Spans)
	}

	// Parent links: decision continues the client's span; ingress,
	// coalesce and solve hang under decision; phases under solve.
	dec := byName["decision"]
	if dec.Parent != "b7ad6b7169203331" {
		t.Errorf("decision parent = %q, want the client's span ID", dec.Parent)
	}
	for _, name := range []string{"ingress", "coalesce", "solve"} {
		if got := byName[name].Parent; got != dec.ID {
			t.Errorf("%s parent = %q, want decision %q", name, got, dec.ID)
		}
	}
	for _, name := range []string{"build", "engine_init", "iterate", "assemble", "publish"} {
		if got := byName[name].Parent; got != byName["solve"].ID {
			t.Errorf("%s parent = %q, want solve %q", name, got, byName["solve"].ID)
		}
	}

	// The root records which generation resolved it and its latency.
	if dec.Attrs["generation"] == "" {
		t.Error("decision span missing generation attr")
	}
	if dec.Attrs["decision_latency_s"] == "" {
		t.Error("decision span missing decision_latency_s attr")
	}
	if dec.Attrs["kind"] != "set_rate" {
		t.Errorf("decision kind = %q, want set_rate", dec.Attrs["kind"])
	}
	// ?target= finds the root by the commodity it hit.
	resp, body = doReq(t, "GET", ts.URL+"/debug/spans?target=c1&name=decision", nil)
	page.Spans = nil
	if err := json.Unmarshal(body, &page); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("GET /debug/spans?target=c1 status = %d (%v): %s", resp.StatusCode, err, body)
	}
	if !slices.ContainsFunc(page.Spans, func(sp span.Span) bool { return sp.ID == dec.ID && sp.Trace == wantTrace }) {
		t.Errorf("?target=c1 misses the decision root %s of trace %s: %+v", dec.ID, wantTrace, page.Spans)
	}
	if byName["solve"].Attrs["mutations_coalesced"] == "" {
		t.Error("solve span missing mutations_coalesced attr")
	}
	it := byName["iterate"].Attrs
	if it["iterations"] == "" || it["rounds"] == "" {
		t.Errorf("iterate span attrs = %v, want iterations and rounds", it)
	}
	if got := byName["solve"].Attrs["shards"]; got != fmt.Sprint(shards) {
		t.Errorf("solve span shards = %q, want %d", got, shards)
	}
	if st := byName["engine_init"].Attrs["start"]; st != "warm" && st != "cold" {
		t.Errorf("engine_init start = %q, want warm|cold", st)
	}

	// Every stage latency on /metrics comes from the span tree: once the
	// solver loop has stopped (no span can still be ending), the stage
	// labels are exactly the finished span names, each counted once per
	// span, and none of the retired latency families is exposed.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	finished := map[string]uint64{}
	for _, sp := range tr.Spans(span.Filter{}) {
		finished[sp.Name]++
	}
	if _, n := tr.Stats(); n != uint64(tr.Len()) {
		t.Fatalf("%d spans finished but the ring holds %d; size it to hold them all", n, tr.Len())
	}
	resp, metrics := doReq(t, "GET", ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	stages := map[string]uint64{}
	for _, line := range strings.Split(string(metrics), "\n") {
		rest, ok := strings.CutPrefix(line, `streamopt_stage_seconds_count{stage="`)
		if !ok {
			continue
		}
		name, count, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseUint(count, 10, 64)
		if err != nil {
			t.Fatalf("bad stage count line %q: %v", line, err)
		}
		stages[name] = n
	}
	if got, want := fmt.Sprint(stages), fmt.Sprint(finished); got != want {
		t.Errorf("streamopt_stage_seconds counts = %s, want the finished spans %s", got, want)
	}
	for _, family := range []string{
		"streamopt_step_phase_seconds",
		"streamopt_server_solve_seconds",
		"streamopt_decision_latency_seconds",
		"streamopt_spans_total",
	} {
		if strings.Contains(string(metrics), family) {
			t.Errorf("retired family %s is still exposed", family)
		}
	}
}

// observe runs one mutation script against a traced, recorded server at
// the given shard count and returns what an operator can see of it: the
// attribute keys of every span name and the metric families exposed.
func observe(t *testing.T, shards int) (spanAttrs map[string]map[string]bool, families map[string]bool) {
	t.Helper()
	rec := obs.NewRecorder(obs.NewRegistry())
	opts := traced(rec, 1024, shards)
	s, _ := start(t, opts)
	tr := opts.Spans
	snap, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	// A warm re-solve, a cold one (arrival), a network-wide change and a
	// departure; each waits for its snapshot so nothing coalesces.
	const c2 = `{"name":"c2","source":"a","sink":"t2","maxRate":4,"utility":{"type":"log","weight":2,"scale":1},` +
		`"edges":[{"from":"a","to":"b","beta":1,"cost":1},{"from":"b","to":"t2","beta":1,"cost":1}]}`
	for _, m := range []journal.Mutation{
		journal.SetRate("c1", 12),
		journal.AddCommodity([]byte(c2)),
		journal.SetCapacity("b", 6),
		journal.RemoveCommodity("c2"),
	} {
		if _, err := s.Apply(m); err != nil {
			t.Fatal(err)
		}
		if snap, err = s.WaitForGeneration(snap.Generation+1, waitBudget); err != nil {
			t.Fatal(err)
		}
	}

	spanAttrs = map[string]map[string]bool{}
	for _, sp := range tr.Spans(span.Filter{}) {
		keys := spanAttrs[sp.Name]
		if keys == nil {
			keys = map[string]bool{}
			spanAttrs[sp.Name] = keys
		}
		for k := range sp.Attrs {
			keys[k] = true
		}
	}
	var metrics strings.Builder
	if err := rec.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	families = map[string]bool{}
	for _, line := range strings.Split(metrics.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(rest)[0]] = true
		}
	}
	return spanAttrs, families
}

// TestObservationShardCountInvariant: what the daemon shows of a solve —
// span names, the attribute keys of each, metric families — does not
// depend on the shard count, and no per-iteration series exists: the
// engines run recorder-free whether one runner steps or four.
func TestObservationShardCountInvariant(t *testing.T) {
	spans1, families1 := observe(t, 1)
	spans4, families4 := observe(t, 4)
	for _, name := range []string{"decision", "ingress", "coalesce", "solve", "build", "engine_init", "iterate", "assemble", "publish"} {
		if spans1[name] == nil {
			t.Errorf("no %q span at 1 shard", name)
		}
	}
	if got, want := fmt.Sprint(spans4), fmt.Sprint(spans1); got != want {
		t.Errorf("span names / attribute keys differ by shard count:\n 1 shard:  %s\n 4 shards: %s", want, got)
	}
	if got, want := fmt.Sprint(families4), fmt.Sprint(families1); got != want {
		t.Errorf("metric families differ by shard count:\n 1 shard:  %s\n 4 shards: %s", want, got)
	}
	if families1["streamopt_iterations_total"] || families4["streamopt_iterations_total"] {
		t.Error("streamopt_iterations_total exposed; serving engines must not feed the recorder")
	}
}

// TestSpansWithoutRecorder: span tracing alone conjures no Recorder, and
// /debug/spans serves the decision tree all the same.
func TestSpansWithoutRecorder(t *testing.T) {
	s, ts := start(t, traced(nil, 256, 1))
	if s.opts.Recorder != nil {
		t.Fatal("Options{Spans: t} created a Recorder the caller did not pass")
	}
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetMaxRate("c1", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitForGeneration(first.Generation+1, waitBudget); err != nil {
		t.Fatal(err)
	}
	resp, body := doReq(t, "GET", ts.URL+"/debug/spans?name=iterate", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/spans status = %d: %s", resp.StatusCode, body)
	}
	var page struct {
		Spans []span.Span `json:"spans"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Spans) < 2 {
		t.Fatalf("got %d iterate spans, want one per solve (≥ 2)", len(page.Spans))
	}
}

// TestUntracedMutationStartsFreshTrace verifies a mutation without a
// traceparent still gets a full decision tree under a server-minted
// trace ID.
func TestUntracedMutationStartsFreshTrace(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry())
	opts := traced(rec, 256, 1)
	s, ts := start(t, opts)
	tr := opts.Spans
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := doReq(t, "PATCH", ts.URL+"/v1/commodities/c1", map[string]any{"maxRate": 6.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH status = %d", resp.StatusCode)
	}
	if _, err := s.WaitForGeneration(first.Generation+1, waitBudget); err != nil {
		t.Fatal(err)
	}
	roots := tr.Spans(span.Filter{Name: "decision"})
	if len(roots) == 0 {
		t.Fatal("no decision span recorded")
	}
	root := roots[len(roots)-1]
	if root.Trace == "" || root.Parent != "" {
		t.Errorf("fresh-trace root = trace %q parent %q, want minted trace and no parent", root.Trace, root.Parent)
	}
}

// TestHealthAndReadyEndpoints covers liveness (always 200) and
// readiness flipping once the first snapshot publishes.
func TestHealthAndReadyEndpoints(t *testing.T) {
	// A handler over a server that never solved: ready must be 503,
	// healthz still 200.
	cold := &Server{}
	cold.opts.Logf = func(string, ...any) {}
	ch := cold.Handler(nil)
	for path, want := range map[string]int{"/healthz": 200, "/v1/healthz": 200, "/readyz": 503} {
		rr := httptest.NewRecorder()
		ch.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != want {
			t.Errorf("cold %s = %d, want %d", path, rr.Code, want)
		}
	}

	// A served first snapshot flips readiness.
	s, ts := start(t, testOptions(nil))
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	resp, body := doReq(t, "GET", ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after first snapshot = %d", resp.StatusCode)
	}
	var ready struct {
		Ready      bool  `json:"ready"`
		Generation int64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.Generation < 1 {
		t.Errorf("readyz payload = %+v", ready)
	}
}

// TestAdmissionFlips drives c1 across the admitted↔rejected boundary
// by crushing node a's capacity and restoring it, and checks both the
// in-memory ring and the /v1/flips endpoint, including the triggering
// trace ID.
func TestAdmissionFlips(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry())
	s, ts := start(t, traced(rec, 256, 1))
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if rejected(first.Commodities[0].Admitted, first.Commodities[0].Offered) {
		t.Fatalf("c1 should start admitted, snapshot %+v", first.Commodities[0])
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/nodes/a/capacity",
		strings.NewReader(`{"capacity": 0.0001}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", clientTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capacity POST status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(waitBudget)
	gen := first.Generation
	for {
		snap, err := s.WaitForGeneration(gen+1, waitBudget)
		if err != nil {
			t.Fatal(err)
		}
		gen = snap.Generation
		if rejected(snap.Commodities[0].Admitted, snap.Commodities[0].Offered) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("c1 never became rejected; admitted=%v", snap.Commodities[0].Admitted)
		}
	}

	flips := s.Flips()
	if len(flips) == 0 {
		t.Fatal("no admission flips recorded")
	}
	last := flips[len(flips)-1]
	if last.Commodity != "c1" || last.Admitted {
		t.Errorf("flip = %+v, want c1 → rejected", last)
	}
	if last.Trace != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("flip trace = %q, want the client's trace ID", last.Trace)
	}

	// Restore capacity: flips back to admitted.
	resp, _ = doReq(t, "POST", ts.URL+"/v1/nodes/a/capacity", map[string]any{"capacity": 10.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore POST status = %d", resp.StatusCode)
	}
	deadline = time.Now().Add(waitBudget)
	for {
		snap, err := s.WaitForGeneration(gen+1, waitBudget)
		if err != nil {
			t.Fatal(err)
		}
		gen = snap.Generation
		if !rejected(snap.Commodities[0].Admitted, snap.Commodities[0].Offered) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("c1 never re-admitted")
		}
	}
	flips = s.Flips()
	last = flips[len(flips)-1]
	if last.Commodity != "c1" || !last.Admitted {
		t.Errorf("restore flip = %+v, want c1 → admitted", last)
	}

	resp, body := doReq(t, "GET", ts.URL+"/v1/flips", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/flips = %d", resp.StatusCode)
	}
	var page struct {
		Flips []AdmissionFlip `json:"flips"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Flips) != len(flips) {
		t.Errorf("endpoint returned %d flips, ring has %d", len(page.Flips), len(flips))
	}
}

// TestHTTPMiddlewareMetrics checks the per-route counters and latency
// histograms the middleware produces.
func TestHTTPMiddlewareMetrics(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry())
	s, ts := start(t, testOptions(rec))
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}

	resp, _ := doReq(t, "GET", ts.URL+"/v1/admitted", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/admitted = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, "GET", ts.URL+"/no/such/route", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmatched route = %d", resp.StatusCode)
	}

	var metrics strings.Builder
	if err := rec.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	text := metrics.String()
	for _, want := range []string{
		"streamopt_http_requests_total",
		`route="GET /v1/admitted"`,
		`code="200"`,
		`route="unmatched"`,
		"streamopt_http_request_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestWaitForGenerationTimeoutReturnsLatest pins the audited contract:
// on timeout the call reports the newest published snapshot alongside
// the error, so callers can degrade to stale-but-consistent data.
func TestWaitForGenerationTimeoutReturnsLatest(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry())
	s, _ := start(t, testOptions(rec))
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.WaitForGeneration(first.Generation+1000, 20*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if snap == nil {
		t.Fatal("timeout must still return the latest snapshot")
	}
	if snap.Generation < first.Generation {
		t.Errorf("returned generation %d older than observed %d", snap.Generation, first.Generation)
	}
}

// TestCloseWakesWaiter: a waiter blocked on a generation that never
// comes returns when the server closes, long before its timeout, with
// the closed error and the latest snapshot.
func TestCloseWakesWaiter(t *testing.T) {
	s, _ := start(t, testOptions(nil))
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		snap *Snapshot
		err  error
	}
	done := make(chan result, 1)
	go func() {
		snap, err := s.WaitForGeneration(first.Generation+1000, time.Hour)
		done <- result{snap, err}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err == nil || !strings.Contains(r.err.Error(), "closed") {
			t.Fatalf("waiter error = %v, want the closed error", r.err)
		}
		if r.snap != s.Snapshot() || r.snap.Generation < first.Generation {
			t.Fatalf("waiter returned %+v, want the latest snapshot (generation ≥ %d)", r.snap, first.Generation)
		}
	case <-time.After(waitBudget):
		t.Fatal("Close did not wake the waiter")
	}
}

// TestWaitForGenerationPublishRace interleaves waiters with concurrent
// publishes; under -race (CI runs this package with -count=5) it
// doubles as the publish/wait memory-safety check.
func TestWaitForGenerationPublishRace(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry())
	s, _ := start(t, testOptions(rec))
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	// Each round races several waiters for the next generation against
	// the mutation that produces it. Mutations coalesce, so targets are
	// derived from the currently published generation, which every
	// publish strictly advances.
	const rounds, waiters = 10, 4
	gen := first.Generation
	for i := 0; i < rounds; i++ {
		target := gen + 1
		var wg sync.WaitGroup
		errs := make(chan error, waiters+1)
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				snap, err := s.WaitForGeneration(target, waitBudget)
				if err != nil {
					errs <- fmt.Errorf("wait %d: %w", target, err)
					return
				}
				if snap.Generation < target {
					errs <- fmt.Errorf("wait %d returned older generation %d", target, snap.Generation)
				}
			}()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.SetMaxRate("c1", 4+float64(i%5)); err != nil {
				errs <- fmt.Errorf("mutate %d: %w", i, err)
			}
		}(i)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		gen = s.Snapshot().Generation
	}
}
