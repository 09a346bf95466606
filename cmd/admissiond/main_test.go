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
)

// TestAdmissiondEndToEnd boots the daemon on a small generated
// topology, drives the public API over real HTTP — rate update,
// failure injection, metrics scrape — and shuts it down gracefully.
func TestAdmissiondEndToEnd(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 12, Commodities: 2, Layers: 3})
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
	events := filepath.Join(t.TempDir(), "events.jsonl")

	addrCh := make(chan string, 1)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- realMain(cliConfig{
			in:            in,
			addr:          "127.0.0.1:0",
			eta:           0.04,
			eps:           0.2,
			iters:         2000,
			stationaryTol: 1e-3,
			debounce:      2 * time.Millisecond,
			eventsOut:     events,
			spanCap:       512,
			historyCap:    16,
			ready:         func(a string) { addrCh <- a },
			stop:          stop,
		})
	}()

	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a
	case err := <-errCh:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

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
	readyDeadline := time.Now().Add(30 * time.Second)
	for {
		resp0, err = http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp0.Body.Close()
		if resp0.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(readyDeadline) {
			t.Fatalf("GET /readyz never turned 200 (last %d)", resp0.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

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
		// The daemon's engines run recorder-free: solves are counted per
		// round and per decision, never per iteration.
		"streamopt_iterations_total 0\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// Graceful shutdown drains and exits cleanly.
	close(stop)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// The JSONL event stream recorded server solves.
	evData, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(evData), `"type":"server_solve"`) {
		t.Fatalf("events file has no server_solve records:\n%.500s", evData)
	}
	if !strings.Contains(string(evData), `"type":"server_mutation"`) {
		t.Fatalf("events file has no server_mutation records:\n%.500s", evData)
	}
	if strings.Contains(string(evData), `"type":"iteration"`) {
		t.Fatalf("events file has per-iteration records; serving engines must run recorder-free")
	}
	if !strings.Contains(string(evData), `"type":"span"`) {
		t.Fatalf("events file has no span records:\n%.500s", evData)
	}
	if !strings.Contains(string(evData), `"type":"http_request"`) {
		t.Fatalf("events file has no http_request records:\n%.500s", evData)
	}
}

// TestAdmissiondJournalRecovery boots the daemon with a flight
// recorder, mutates state over HTTP, restarts it against the same
// journal directory, and asserts the mutated state survived.
func TestAdmissiondJournalRecovery(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 7, Nodes: 10, Commodities: 2, Layers: 3})
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
	jdir := filepath.Join(t.TempDir(), "journal")
	name := p.Commodities[0].Name

	boot := func(in string) (base string, stop chan struct{}, errCh chan error) {
		t.Helper()
		addrCh := make(chan string, 1)
		stop = make(chan struct{})
		errCh = make(chan error, 1)
		go func() {
			errCh <- realMain(cliConfig{
				in:              in,
				addr:            "127.0.0.1:0",
				eta:             0.04,
				eps:             0.2,
				iters:           2000,
				stationaryTol:   1e-3,
				debounce:        2 * time.Millisecond,
				historyCap:      16,
				journalDir:      jdir,
				checkpointEvery: 4,
				fsync:           "interval",
				runtimeSample:   time.Second,
				ready:           func(a string) { addrCh <- a },
				stop:            stop,
			})
		}()
		select {
		case a := <-addrCh:
			return "http://" + a, stop, errCh
		case err := <-errCh:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never became ready")
		}
		panic("unreachable")
	}
	shutdown := func(stop chan struct{}, errCh chan error) {
		t.Helper()
		close(stop)
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("daemon exited with error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never exited")
		}
	}
	maxRate := func(base string) float64 {
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

	base, stop, errCh := boot(in)
	req, err := http.NewRequest(http.MethodPatch, base+"/v1/commodities/"+name,
		strings.NewReader(`{"maxRate": 3.5}`))
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
	if got := maxRate(base); got != 3.5 {
		t.Fatalf("maxRate after PATCH = %v", got)
	}
	// The journal's metrics are live on /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := new(bytes.Buffer)
	if _, err := mbody.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	for _, want := range []string{"streamopt_journal_records_total", "streamopt_go_goroutines"} {
		if !strings.Contains(mbody.String(), want) {
			t.Fatalf("/metrics lacks %s", want)
		}
	}
	shutdown(stop, errCh)

	// Second boot: no -in; state must come from the journal.
	base, stop, errCh = boot("")
	if got := maxRate(base); got != 3.5 {
		t.Fatalf("maxRate after recovery = %v, want 3.5", got)
	}
	shutdown(stop, errCh)
}

// TestAdmissiondShardTopologyRecovery journals a sharded daemon, then
// reboots from the journal alone (no -shards flag): the restart
// checkpoint's recorded topology must come back with the problem.
func TestAdmissiondShardTopologyRecovery(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 7, Nodes: 10, Commodities: 2, Layers: 3})
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
	jdir := filepath.Join(t.TempDir(), "journal")

	boot := func(in string, shards int) (base string, stop chan struct{}, errCh chan error) {
		t.Helper()
		addrCh := make(chan string, 1)
		stop = make(chan struct{})
		errCh = make(chan error, 1)
		go func() {
			errCh <- realMain(cliConfig{
				in:                in,
				addr:              "127.0.0.1:0",
				eta:               0.04,
				eps:               0.2,
				iters:             2000,
				stationaryTol:     1e-3,
				debounce:          2 * time.Millisecond,
				shards:            shards,
				placementSalt:     3,
				priceExchangeEvry: 25,
				priceDamping:      0.5,
				journalDir:        jdir,
				checkpointEvery:   4,
				fsync:             "interval",
				ready:             func(a string) { addrCh <- a },
				stop:              stop,
			})
		}()
		select {
		case a := <-addrCh:
			return "http://" + a, stop, errCh
		case err := <-errCh:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never became ready")
		}
		panic("unreachable")
	}
	shardCount := func(base string) string {
		t.Helper()
		// The gauge appears once the first sharded solve publishes;
		// poll past the boot solve.
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body := new(bytes.Buffer)
			_, err = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(body.String(), "\n") {
				if strings.HasPrefix(line, "streamopt_shard_count ") {
					return strings.TrimPrefix(line, "streamopt_shard_count ")
				}
			}
			if time.Now().After(deadline) {
				return ""
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	shutdown := func(stop chan struct{}, errCh chan error) {
		t.Helper()
		close(stop)
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("daemon exited with error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never exited")
		}
	}

	base, stop, errCh := boot(in, 2)
	if got := shardCount(base); got != "2" {
		t.Fatalf("first boot shard count = %q, want 2", got)
	}
	shutdown(stop, errCh)

	// Reboot from the journal alone: shards stays zero in the config
	// (the operator passed no flags), so the topology must be adopted
	// from the recorded restart checkpoint.
	base, stop, errCh = boot("", 0)
	if got := shardCount(base); got != "2" {
		t.Fatalf("recovered shard count = %q, want 2 (topology not restored from journal)", got)
	}
	shutdown(stop, errCh)
}

// TestAdmissiondSolverSettingsRecovery journals a daemon started with
// non-default solver flags at one shard, then reboots it the way an
// operator would after a crash, with only -journal-dir: the new restart
// checkpoint must record the solver the first boot ran, not the flag
// defaults.
func TestAdmissiondSolverSettingsRecovery(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 7, Nodes: 10, Commodities: 2, Layers: 3})
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
	jdir := filepath.Join(t.TempDir(), "journal")

	// run boots the daemon with the flag defaults plus the flags named in
	// set, and shuts it down as soon as it serves: the restart checkpoint
	// is written at boot.
	run := func(set map[string]bool, edit func(*cliConfig)) {
		t.Helper()
		cfg := cliConfig{
			addr: "127.0.0.1:0", eta: 0.04, eps: 0.2, iters: 4000, stationaryTol: 1e-3,
			debounce: 2 * time.Millisecond, shards: 1, priceExchangeEvry: 25, priceDamping: 0.5,
			journalDir: jdir, checkpointEvery: 256, fsync: "interval", flagSet: set,
		}
		edit(&cfg)
		stop := make(chan struct{})
		cfg.ready = func(string) { close(stop) }
		cfg.stop = stop
		errCh := make(chan error, 1)
		go func() { errCh <- realMain(cfg) }()
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("daemon exited with error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon never exited")
		}
	}
	run(map[string]bool{"in": true, "shards": true, "iters": true, "eps": true, "price-exchange-every": true, "journal-dir": true},
		func(c *cliConfig) { c.in, c.shards, c.iters, c.eps, c.priceExchangeEvry = in, 1, 123, 0.1, 10 })
	run(map[string]bool{"journal-dir": true}, func(*cliConfig) {})

	log, err := journal.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	var boots []*journal.SolverParams
	for _, r := range log.Records {
		if r.Kind == journal.KindCheckpoint && r.Checkpoint.Restart {
			boots = append(boots, r.Checkpoint.Solver)
		}
	}
	if len(boots) != 2 {
		t.Fatalf("journal holds %d restart checkpoints, want 2", len(boots))
	}
	if first := *boots[0]; first.MaxIters != 123 || first.Epsilon != 0.1 || first.PriceExchangeEvery != 10 {
		t.Fatalf("first boot recorded %+v", first)
	}
	if *boots[1] != *boots[0] {
		t.Fatalf("recovered boot recorded %+v, want the recording's %+v", *boots[1], *boots[0])
	}
}
