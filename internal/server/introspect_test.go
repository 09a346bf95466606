package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// explainResponse mirrors the GET /explain?commodity= payload.
type explainResponse struct {
	Generation int64                 `json:"generation"`
	Explain    core.CommodityExplain `json:"explain"`
}

// TestExplainEndpoint overloads the toy network (λ ≫ capacity) and
// checks the attribution names a binding resource with a positive
// shadow price — the acceptance criterion for /explain.
func TestExplainEndpoint(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	s, ts := startServer(t, rec)
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	// Offer triple the chain's capacity so admission is capacity-cut.
	if _, err := s.SetMaxRate("c1", 30); err != nil {
		t.Fatal(err)
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Commodities[0].Admitted >= 29 {
		t.Fatalf("instance not capacity-limited: admitted %g of 30", snap.Commodities[0].Admitted)
	}

	for _, query := range []string{"c1", "0"} {
		resp, body := doReq(t, http.MethodGet, ts.URL+"/explain?commodity="+query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /explain?commodity=%s status %d: %s", query, resp.StatusCode, body)
		}
		var er explainResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("explain response does not parse: %v\n%s", err, body)
		}
		ce := er.Explain
		if ce.Name != "c1" || ce.Offered != 30 {
			t.Fatalf("explain for %q: %+v", query, ce)
		}
		if ce.Admitted <= 0 {
			t.Fatalf("explain reports nothing admitted: %+v", ce)
		}
		if ce.MarginalUtility <= 0 || ce.PathCost <= 0 {
			t.Fatalf("admission marginals missing: %+v", ce)
		}
		if len(ce.Binding) == 0 {
			t.Fatalf("capacity-constrained commodity has no binding resource: %+v", ce)
		}
		top := ce.Binding[0]
		if top.Price <= 0 || top.Name == "" || (top.Kind != "server" && top.Kind != "link") {
			t.Fatalf("bad binding entry: %+v", top)
		}
	}

	// No query: all commodities.
	resp, body := doReq(t, http.MethodGet, ts.URL+"/explain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /explain status %d", resp.StatusCode)
	}
	var all struct {
		Generation int64                   `json:"generation"`
		Explain    []core.CommodityExplain `json:"explain"`
	}
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Explain) != 1 {
		t.Fatalf("explain-all entries = %d, want 1", len(all.Explain))
	}

	// Unknown commodity: 404.
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/explain?commodity=ghost", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown commodity status %d, want 404", resp.StatusCode)
	}
}

// TestHistoryEndpoint checks /history reports generation-over-generation
// utility and admitted-rate diffs after a rate cut.
func TestHistoryEndpoint(t *testing.T) {
	s, ts := startServer(t, nil)
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetMaxRate("c1", 2); err != nil {
		t.Fatal(err)
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/history", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /history status %d: %s", resp.StatusCode, body)
	}
	var hist struct {
		Generations []HistoryEntry `json:"generations"`
	}
	if err := json.Unmarshal(body, &hist); err != nil {
		t.Fatalf("history response does not parse: %v\n%s", err, body)
	}
	if len(hist.Generations) < 2 {
		t.Fatalf("history entries = %d, want ≥ 2", len(hist.Generations))
	}
	for i := 1; i < len(hist.Generations); i++ {
		if hist.Generations[i].Generation <= hist.Generations[i-1].Generation {
			t.Fatalf("history not oldest-first: %+v", hist.Generations)
		}
	}
	last := hist.Generations[len(hist.Generations)-1]
	prev := hist.Generations[len(hist.Generations)-2]
	if last.Generation != snap.Generation {
		t.Fatalf("latest history generation %d != snapshot %d", last.Generation, snap.Generation)
	}
	wantDU := last.Utility - prev.Utility
	if diff := last.DeltaUtility - wantDU; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("deltaUtility %g, want %g", last.DeltaUtility, wantDU)
	}
	wantDA := last.Admitted["c1"] - prev.Admitted["c1"]
	if diff := last.DeltaAdmitted["c1"] - wantDA; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("deltaAdmitted[c1] %g, want %g", last.DeltaAdmitted["c1"], wantDA)
	}
	// The rate cut must show as a drop.
	if last.DeltaAdmitted["c1"] >= 0 {
		t.Fatalf("rate cut did not show as negative admitted delta: %+v", last)
	}
}

// TestHistoryRingBounded drives more generations than HistoryCap, each
// one flipping c1's admission, and checks only the newest survive,
// oldest-first — in /history and in /v1/flips alike.
func TestHistoryRingBounded(t *testing.T) {
	opts := testOptions(nil)
	opts.HistoryCap = 3
	s, ts := startServerWith(t, nil, opts)
	gen, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	last := gen.Generation
	for i := 0; i < 5; i++ {
		// Offering far beyond the chain's capacity of 10 rejects c1
		// (admitted < 1% of offered); offering 3 admits it again.
		rate := 3.0
		if i%2 == 0 {
			rate = 1e6
		}
		if _, err := s.SetMaxRate("c1", rate); err != nil {
			t.Fatal(err)
		}
		snap, err := s.WaitForGeneration(last+1, waitBudget)
		if err != nil {
			t.Fatal(err)
		}
		last = snap.Generation
	}
	hist := s.History()
	if len(hist) != 3 {
		t.Fatalf("history length = %d, want cap 3", len(hist))
	}
	if hist[len(hist)-1].Generation != last {
		t.Fatalf("newest generation %d missing from history tail %d",
			last, hist[len(hist)-1].Generation)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Generation <= hist[i-1].Generation {
			t.Fatal("history ring not oldest-first after wraparound")
		}
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/flips", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/flips status %d", resp.StatusCode)
	}
	var page struct {
		Flips []AdmissionFlip `json:"flips"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Flips) != len(hist) {
		t.Fatalf("/v1/flips = %+v, want one flip per retained generation", page.Flips)
	}
	for i, f := range page.Flips {
		// The ring keeps the last three toggles: rejected, admitted, rejected.
		wantAdmitted := i%2 == 1
		if f.Generation != hist[i].Generation || f.Commodity != "c1" || f.Admitted != wantAdmitted {
			t.Fatalf("flip %d = %+v, want c1 admitted=%v at generation %d",
				i, f, wantAdmitted, hist[i].Generation)
		}
	}
}

// TestHistoryDoesNotPinSnapshots: the generation ring keeps what /history
// and /v1/flips render, never the snapshot itself, so a superseded
// snapshot (its Explain and Usage with it) is collected while its
// generation is still retained.
func TestHistoryDoesNotPinSnapshots(t *testing.T) {
	s, err := New(toyProblem(t), testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	freed := make(chan struct{})
	func() {
		first, err := s.WaitForGeneration(1, waitBudget)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(first, func(*Snapshot) { close(freed) })
	}()
	last := int64(1)
	for i := 0; i < 3; i++ {
		if _, err := s.SetMaxRate("c1", 3+float64(i)); err != nil {
			t.Fatal(err)
		}
		snap, err := s.WaitForGeneration(last+1, waitBudget)
		if err != nil {
			t.Fatal(err)
		}
		last = snap.Generation
	}
	if h := s.History(); len(h) == 0 || h[0].Generation != 1 {
		t.Fatalf("generation 1 no longer retained: %d generations", len(h))
	}
	deadline := time.Now().Add(waitBudget)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("generation 1's snapshot was never collected: the history ring pins it")
		}
	}
}

// TestDebugTraceDisabled: the daemon keeps no per-iteration trace at any
// shard count, so the endpoint that served one answers 404.
func TestDebugTraceDisabled(t *testing.T) {
	_, ts := startServer(t, nil)
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/debug/trace", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/trace: status %d, want 404", resp.StatusCode)
	}
}
