package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsExposeOnlyWhatTheServerWrites boots a two-shard server with
// a Recorder, as admissiond does, and scrapes /metrics after the first
// publish and after a mutation's re-solve. The server's own counters are
// there, at 0 until their first increment, from the first publish; no
// family the server never writes — the engine set (its engines run
// recorder-free), the load driver's counters, a workers echo or the
// retired per-sweep shard gauges — is there at all.
func TestMetricsExposeOnlyWhatTheServerWrites(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry())
	s, ts := start(t, traced(rec, 256, 2))
	scrape := func() string {
		t.Helper()
		resp, body := doReq(t, "GET", ts.URL+"/metrics", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: status %d", resp.StatusCode)
		}
		return "\n" + string(body)
	}
	absent := []string{
		"streamopt_utility", "streamopt_feasible", "streamopt_cost", "streamopt_eta",
		"streamopt_step_workers", "streamopt_iterations_total",
		"streamopt_protocol_messages_total", "streamopt_adaptive_backtracks_total",
		"streamopt_loadgen_epochs_total", "streamopt_loadgen_mutations_total",
		"streamopt_shard_count", "streamopt_shard_last_exchange_unix",
	}
	check := func(when, metrics string, present map[string]string) {
		t.Helper()
		for _, family := range absent {
			if strings.Contains(metrics, "\n"+family+" ") || strings.Contains(metrics, "\n"+family+"{") {
				t.Errorf("%s: /metrics exposes %s, a family the server does not write", when, family)
			}
		}
		for series, value := range present {
			if !strings.Contains(metrics, "\n"+series+" "+value+"\n") {
				t.Errorf("%s: /metrics lacks %s %s", when, series, value)
			}
		}
	}

	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	check("first publish", scrape(), map[string]string{
		`streamopt_server_solves_total{start="warm"}`:    "0",
		`streamopt_server_solves_total{start="cold"}`:    "1",
		`streamopt_admission_flips_total{to="admitted"}`: "0",
		`streamopt_admission_flips_total{to="rejected"}`: "0",
		`streamopt_divergence_total`:                     "0",
		`streamopt_server_generation`:                    "1",
	})

	if _, err := s.SetMaxRate("c1", 12); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitForGeneration(first.Generation+1, waitBudget); err != nil {
		t.Fatal(err)
	}
	metrics := scrape()
	check("after a mutation", metrics, map[string]string{
		`streamopt_server_solves_total{start="warm"}`: "1",
		`streamopt_server_generation`:                 "2",
		`streamopt_divergence_total`:                  "0",
	})
	if n := strings.Count(metrics, "\nstreamopt_shard_commodities{shard="); n != 2 {
		t.Errorf("%d streamopt_shard_commodities series, want one per shard (2)", n)
	}
}
