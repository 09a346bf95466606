package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
)

func testServerOptions() server.Options {
	return server.Options{
		Debounce:   -1, // solve immediately: deterministic generations
		MaxIters:   200,
		HistoryCap: -1,
		Logf:       func(string, ...any) {},
	}
}

// The CI smoke test: drive the bundled flash-crowd scenario against an
// in-process server and check the whole pipeline — every compiled
// mutation applies, snapshots incorporate them, and synced epochs
// carry the driver's decision latency in their samples (the one record
// of it: -out writes RunResult as is).
func TestDriveFlashCrowdInProcess(t *testing.T) {
	c, err := Compile(loadScenario(t, "flashcrowd.json"), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(c.Base, testServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := Run(c, InProc{S: srv}, DriverOptions{
		SyncEvery:   1,
		SyncTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	compiled := 0
	for _, ep := range c.Epochs {
		compiled += ep.Changes
	}
	if res.Mutations != compiled {
		t.Fatalf("applied %d mutations, compiled %d", res.Mutations, compiled)
	}
	if res.Final.Generation == 0 || !res.Final.Feasible {
		t.Fatalf("final observation %+v: want a feasible published snapshot", res.Final)
	}
	if len(res.Samples) != c.Scenario.Epochs {
		t.Fatalf("%d samples, want %d", len(res.Samples), c.Scenario.Epochs)
	}
	measured := 0
	for _, s := range res.Samples {
		if s.LatencySeconds >= 0 {
			measured++
		}
	}
	if measured == 0 {
		t.Fatal("no epoch measured a decision latency")
	}
	// During the burst the offered load must actually surge.
	var peak float64
	for _, s := range res.Samples {
		if s.Offered > peak {
			peak = s.Offered
		}
	}
	if base := res.Samples[5].Offered; peak < 3*base {
		t.Fatalf("flash crowd never surged: peak %g vs pre-burst %g", peak, base)
	}
}

// Two identical runs against identical servers must apply the same
// mutation sequence and land on the same final offered load.
func TestDriverIsReproducible(t *testing.T) {
	run := func() *RunResult {
		c, err := Compile(loadScenario(t, "churn.json"), 1)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(c.Base, testServerOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		res, err := Run(c, InProc{S: srv}, DriverOptions{SyncEvery: 1, SyncTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Mutations != b.Mutations {
		t.Fatalf("mutation counts differ: %d vs %d", a.Mutations, b.Mutations)
	}
	for i := range a.Samples {
		if a.Samples[i].Offered != b.Samples[i].Offered || a.Samples[i].Active != b.Samples[i].Active {
			t.Fatalf("epoch %d diverged: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	if a.Final.Offered != b.Final.Offered {
		t.Fatalf("final offered differ: %g vs %g", a.Final.Offered, b.Final.Offered)
	}
}

// The driver must push well past 10k mutations/sec against the
// in-process backend when it isn't waiting on snapshots — the batch
// SetMaxRates path is what makes this possible.
func TestDriverThroughput(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
		"name": "throughput", "seed": 3, "epochs": 3000,
		"network": {"nodes": 24, "layers": 3},
		"cohorts": [{
			"name": "hot", "count": 8,
			"arrival": {"type": "immediate"},
			"rate": {"type": "lognormal", "median": 5, "sigma": 0.5}
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Default debounce coalesces the mutation firehose into few solves;
	// the driver only syncs once at the end.
	srv, err := server.New(c.Base, server.Options{MaxIters: 100, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := Run(c, InProc{S: srv}, DriverOptions{SyncTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mutations < 20000 {
		t.Fatalf("scenario too small to measure: %d mutations", res.Mutations)
	}
	if res.MutationsPerSec < 10000 {
		t.Fatalf("driver sustained %.0f mutations/sec, want ≥ 10000", res.MutationsPerSec)
	}
}

// TestHTTPBackendMirrorsTheRoutes drives all nine ops through the REST
// client encoder against a live handler and checks /v1/problem after
// each against journal.Apply of the same mutation on a mirror problem.
// The commodity's name needs escaping in a URL path: unescaped, its
// PATCH and DELETE address a commodity named "q".
func TestHTTPBackendMirrorsTheRoutes(t *testing.T) {
	c, err := Compile(loadScenario(t, "churn.json"), 1)
	if err != nil {
		t.Fatal(err)
	}
	const name = "q?x/y z"
	var spec map[string]any
	if err := json.Unmarshal(c.Epochs[0].Mutations[0].Payload, &spec); err != nil {
		t.Fatal(err) // churn's first mutation is an arrival
	}
	spec["name"] = name
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	net := c.Base.Net
	link := net.G.Edge(0)
	from, to := net.Names[link.From], net.Names[link.To]
	node := fmt.Sprint(spec["source"])

	srv, err := server.New(c.Base, testServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler(nil))
	defer ts.Close()
	be := HTTP{Base: ts.URL}

	mirror := c.Base.Clone()
	for i, m := range []journal.Mutation{
		journal.AddCommodity(specJSON),
		journal.SetRate(name, 9),
		journal.SetRates(map[string]float64{name: 7}),
		journal.SetUtility(name, []byte(`{"type":"log","weight":2}`)),
		journal.SetCapacity(node, 50),
		journal.ScaleCapacity(node, 0.5),
		journal.SetBandwidth(from, to, 40),
		journal.ScaleBandwidth(from, to, 0.25),
		journal.RemoveCommodity(name),
	} {
		rev, err := be.Apply(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Op, err)
		}
		if rev != int64(i+1) {
			t.Fatalf("%s: rev %d, want %d", m.Op, rev, i+1)
		}
		if err := journal.Apply(mirror, &m); err != nil {
			t.Fatalf("%s on the mirror: %v", m.Op, err)
		}
		want, err := mirror.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/problem")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after %s /v1/problem differs from the mirror:\n%s\n%s", m.Op, got, want)
		}
	}
}
