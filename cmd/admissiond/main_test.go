package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/randnet"
	"repro/internal/stream"
)

// TestAdmissiondEndToEnd boots the daemon on a small generated
// topology, drives the public API over real HTTP — rate update,
// failure injection, metrics scrape — and shuts it down gracefully.
func TestAdmissiondEndToEnd(t *testing.T) {
	in, _ := instance(t, 5, 12)
	base, stop := daemon(t, cliConfig{
		in:            in,
		eta:           0.04,
		eps:           0.2,
		iters:         2000,
		stationaryTol: 1e-3,
		debounce:      2 * time.Millisecond,
		spanCap:       512,
		historyCap:    16,
	})

	// /healthz answers immediately; /readyz flips to 200 once the first
	// snapshot publishes (the nightly soak's startup wait).
	resp0, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz status %d", resp0.StatusCode)
	}
	waitReady(t, base)

	waitSnapshot := func(minGen int64) map[string]any {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(base + "/v1/snapshot")
			if err == nil {
				var snap map[string]any
				err = json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK {
					if gen, _ := snap["generation"].(float64); int64(gen) >= minGen {
						return snap
					}
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no snapshot generation ≥ %d", minGen)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	first := waitSnapshot(1)
	commodities := first["commodities"].([]any)
	name := commodities[0].(map[string]any)["name"].(string)

	// Live rate update over HTTP, carrying a client trace context so the
	// decision lifecycle is queryable under a known trace ID.
	const clientTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodPatch,
		base+"/v1/commodities/"+name, bytes.NewReader([]byte(`{"maxRate": 3.5}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+clientTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH status %d", resp.StatusCode)
	}

	snap := waitSnapshot(int64(first["generation"].(float64)) + 1)
	if snap["warm"] != true {
		t.Fatalf("rate update did not warm-start: %v", snap["warm"])
	}

	// The decision tree for that mutation is served on /debug/spans.
	resp, err = http.Get(base + "/debug/spans?trace=" + clientTrace)
	if err != nil {
		t.Fatal(err)
	}
	var spansPage struct {
		Spans []struct {
			Name  string            `json:"name"`
			Attrs map[string]string `json:"attrs"`
		} `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&spansPage)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/spans: status %d err %v", resp.StatusCode, err)
	}
	spanNames := map[string]bool{}
	var decisionLatency string
	for _, sp := range spansPage.Spans {
		spanNames[sp.Name] = true
		if sp.Name == "decision" {
			decisionLatency = sp.Attrs["decision_latency_s"]
		}
	}
	for _, want := range []string{"decision", "ingress", "coalesce", "solve", "publish"} {
		if !spanNames[want] {
			t.Fatalf("trace %s missing %q span; got %v", clientTrace, want, spanNames)
		}
	}
	if decisionLatency == "" {
		t.Fatal("decision span has no decision_latency_s attribute")
	}

	// Saturate the first commodity so the attribution has a bottleneck
	// to name, then read it back through /explain (the acceptance path).
	req, err = http.NewRequest(http.MethodPatch,
		base+"/v1/commodities/"+name, bytes.NewReader([]byte(`{"maxRate": 1000}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitSnapshot(int64(snap["generation"].(float64)) + 1)

	resp, err = http.Get(base + "/explain?commodity=0")
	if err != nil {
		t.Fatal(err)
	}
	var explained struct {
		Generation int64 `json:"generation"`
		Explain    struct {
			Name     string  `json:"name"`
			Admitted float64 `json:"admitted"`
			Offered  float64 `json:"offered"`
			Gap      float64 `json:"gap"`
			Binding  []struct {
				Name  string  `json:"name"`
				Kind  string  `json:"kind"`
				Price float64 `json:"price"`
			} `json:"binding"`
		} `json:"explain"`
	}
	err = json.NewDecoder(resp.Body).Decode(&explained)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /explain?commodity=0: status %d err %v", resp.StatusCode, err)
	}
	ex := explained.Explain
	if ex.Name != name || ex.Admitted <= 0 || ex.Offered != 1000 {
		t.Fatalf("explain payload wrong: %+v", ex)
	}
	if ex.Admitted > 999 {
		t.Fatalf("offering λ=1000 did not saturate the instance: admitted %g", ex.Admitted)
	}
	if len(ex.Binding) == 0 || ex.Binding[0].Price <= 0 {
		t.Fatalf("saturated commodity has no priced bottleneck: %+v", ex)
	}

	// /history shows the rate changes as admitted-rate deltas.
	resp, err = http.Get(base + "/history")
	if err != nil {
		t.Fatal(err)
	}
	var hist struct {
		Generations []map[string]any `json:"generations"`
	}
	err = json.NewDecoder(resp.Body).Decode(&hist)
	resp.Body.Close()
	if err != nil || len(hist.Generations) < 2 {
		t.Fatalf("GET /history: err %v, %d generations", err, len(hist.Generations))
	}

	// Metrics are served from the same listener and count the solves.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if _, err := prom.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{
		`streamopt_server_solves_total{start="cold"}`,
		`streamopt_server_solves_total{start="warm"}`,
		"streamopt_server_generation",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
	// The daemon's engines run recorder-free: solves are counted per
	// round and per decision, never per iteration, so no per-iteration
	// family is exposed at all.
	if strings.Contains(prom.String(), "streamopt_iterations_total") {
		t.Fatal("metrics expose streamopt_iterations_total, which the daemon never writes")
	}

	// Graceful shutdown drains and exits cleanly.
	stop()
}

// instance writes randnet's instance at seed and node count, two
// commodities on three layers, to a file and returns its path and the
// problem.
func instance(t *testing.T, seed int64, nodes int) (string, *stream.Problem) {
	t.Helper()
	p, err := randnet.Generate(randnet.Config{Seed: seed, Nodes: nodes, Commodities: 2, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "instance.json")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return in, p
}

// daemon runs realMain with cfg on a loopback port until it serves and
// returns its base URL and a stop that shuts it down gracefully and
// fails t unless it exits cleanly.
func daemon(t *testing.T, cfg cliConfig) (base string, stop func()) {
	t.Helper()
	addrCh := make(chan string, 1)
	done := make(chan struct{})
	errCh := make(chan error, 1)
	cfg.addr, cfg.ready, cfg.stop = "127.0.0.1:0", func(a string) { addrCh <- a }, done
	go func() { errCh <- realMain(cfg) }()
	stop = func() {
		t.Helper()
		close(done)
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("daemon exited with error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never exited")
		}
	}
	select {
	case a := <-addrCh:
		return "http://" + a, stop
	case err := <-errCh:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	panic("unreachable")
}

// A recovery is two daemon lifetimes over one journal directory: the
// first boots on instance(7, 10) with recoveryConfig and first's flags,
// the second from the journal alone, with second's. serving checks
// each while it serves (boot 1, then 2); afterwards the journal holds
// one restart checkpoint per boot, and recorded checks their solver
// parameters.
type recovery struct {
	first, second func(*cliConfig)
	serving       func(t *testing.T, boot int, base, commodity string)
	recorded      func(t *testing.T, first, second journal.SolverParams)
}

var recoveryConfig = cliConfig{
	eta: 0.04, eps: 0.2, iters: 2000, stationaryTol: 1e-3, debounce: 2 * time.Millisecond,
	checkpointEvery: 4, fsync: "interval",
}

var recoveries = map[string]recovery{
	// A flight recorder survives a restart: the rate PATCHed over HTTP
	// in the first lifetime is the recovered state in the second, and
	// the journal's metrics are live on /metrics.
	"TestAdmissiondJournalRecovery": {
		first:  func(c *cliConfig) { c.historyCap, c.runtimeSample = 16, time.Second },
		second: func(c *cliConfig) { c.historyCap, c.runtimeSample = 16, time.Second },
		serving: func(t *testing.T, boot int, base, name string) {
			if boot == 1 {
				req, err := http.NewRequest(http.MethodPatch, base+"/v1/commodities/"+name, strings.NewReader(`{"maxRate": 3.5}`))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("PATCH status %d", resp.StatusCode)
				}
				metrics := scrape(t, base)
				for _, want := range []string{"streamopt_journal_records_total", "streamopt_go_goroutines"} {
					if !strings.Contains(metrics, want) {
						t.Fatalf("/metrics lacks %s", want)
					}
				}
			}
			if got := maxRate(t, base, name); got != 3.5 {
				t.Fatalf("boot %d: maxRate = %v, want 3.5", boot, got)
			}
		},
	},
	// A sharded daemon rebooted from the journal alone (no -shards flag)
	// takes the shard topology its restart checkpoint recorded.
	"TestAdmissiondShardTopologyRecovery": {
		first:  func(c *cliConfig) { c.shards, c.placementSalt = 2, 3 },
		second: func(c *cliConfig) { c.placementSalt = 3 },
		serving: func(t *testing.T, boot int, base, _ string) {
			// Each shard's turn writes its streamopt_shard_commodities
			// series, so all are there once the first solve publishes.
			waitReady(t, base)
			if n := strings.Count(scrape(t, base), "\nstreamopt_shard_commodities{shard="); n != 2 {
				t.Fatalf("boot %d: shard count = %d, want 2", boot, n)
			}
		},
		recorded: func(t *testing.T, first, second journal.SolverParams) {
			if first.Shards != 2 || second != first {
				t.Fatalf("restart checkpoints record %+v then %+v, want 2 shards twice", first, second)
			}
		},
	},
	// A daemon started with non-default solver flags at one shard and
	// rebooted the way an operator would after a crash, with only
	// -journal-dir, records on its new restart checkpoint the solver the
	// first boot ran, not the flag defaults.
	"TestAdmissiondSolverSettingsRecovery": {
		first: func(c *cliConfig) {
			c.shards, c.iters, c.eps, c.stationaryTol, c.checkpointEvery = 1, 123, 0.1, 5e-3, 256
			c.flagSet = map[string]bool{"in": true, "shards": true, "iters": true, "eps": true, "stationary-tol": true, "journal-dir": true}
		},
		second: func(c *cliConfig) {
			c.shards, c.iters, c.checkpointEvery = 1, 4000, 256
			c.flagSet = map[string]bool{"journal-dir": true}
		},
		recorded: func(t *testing.T, first, second journal.SolverParams) {
			if first.MaxIters != 123 || first.Epsilon != 0.1 || first.StationaryTol != 5e-3 {
				t.Fatalf("first boot recorded %+v", first)
			}
			if second != first {
				t.Fatalf("recovered boot recorded %+v, want the recording's %+v", second, first)
			}
		},
	},
}

func TestAdmissiondJournalRecovery(t *testing.T)        { checkRecovery(t) }
func TestAdmissiondShardTopologyRecovery(t *testing.T)  { checkRecovery(t) }
func TestAdmissiondSolverSettingsRecovery(t *testing.T) { checkRecovery(t) }

// checkRecovery runs the calling test's row of recoveries.
func checkRecovery(t *testing.T) {
	row, ok := recoveries[t.Name()]
	if !ok {
		t.Fatal("no recovery row for this test")
	}
	in, p := instance(t, 7, 10)
	jdir := filepath.Join(t.TempDir(), "journal")
	for boot, edit := range []func(*cliConfig){row.first, row.second} {
		cfg := recoveryConfig
		cfg.journalDir = jdir
		if boot == 0 {
			cfg.in = in
		}
		edit(&cfg)
		base, stop := daemon(t, cfg)
		if row.serving != nil {
			row.serving(t, boot+1, base, p.Commodities[0].Name)
		}
		stop()
	}

	log, err := journal.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	var boots []journal.SolverParams
	for _, r := range log.Records {
		if r.Kind == journal.KindCheckpoint && r.Checkpoint.Restart {
			boots = append(boots, *r.Checkpoint.Solver)
		}
	}
	if len(boots) != 2 {
		t.Fatalf("journal holds %d restart checkpoints, want 2", len(boots))
	}
	if row.recorded != nil {
		row.recorded(t, boots[0], boots[1])
	}
}

// waitReady polls /readyz until it turns 200, once the first snapshot
// publishes.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /readyz never turned 200 (last %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scrape reads the daemon's /metrics.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return "\n" + body.String()
}

// maxRate reads the named commodity's offered rate from /v1/problem.
func maxRate(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/problem")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var prob struct {
		Commodities []struct {
			Name    string  `json:"name"`
			MaxRate float64 `json:"maxRate"`
		} `json:"commodities"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&prob); err != nil {
		t.Fatal(err)
	}
	for _, c := range prob.Commodities {
		if c.Name == name {
			return c.MaxRate
		}
	}
	t.Fatalf("commodity %s missing from /v1/problem", name)
	return 0
}
