package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseMetrics(t *testing.T) {
	text := `# HELP streamopt_utility total utility
# TYPE streamopt_utility gauge
streamopt_utility 42.5
streamopt_server_solves_total{start="warm"} 7
streamopt_stage_seconds_bucket{stage="decision",le="0.01"} 3
streamopt_stage_seconds_bucket{stage="decision",le="+Inf"} 5
streamopt_stage_seconds_count{stage="decision"} 5
streamopt_stage_seconds_bucket{stage="iterate",le="0.001"} 2

garbage line without value
`
	m := parseMetrics(text)
	if got := m.value("streamopt_utility"); got != 42.5 {
		t.Errorf("utility = %v, want 42.5", got)
	}
	if got := m.value(`streamopt_server_solves_total{start="warm"}`); got != 7 {
		t.Errorf("warm solves = %v, want 7", got)
	}
	buckets := m.histogram("streamopt_stage_seconds_bucket", `stage="decision"`)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(buckets))
	}
	if buckets[0].le != 0.01 || buckets[0].cum != 3 {
		t.Errorf("bucket[0] = %+v", buckets[0])
	}
	if !math.IsInf(buckets[1].le, 1) {
		t.Errorf("bucket[1].le = %v, want +Inf", buckets[1].le)
	}
}

func TestQuantile(t *testing.T) {
	buckets := []bucket{{le: 0.01, cum: 50}, {le: 0.1, cum: 90}, {le: math.Inf(1), cum: 100}}
	// p50 target=50 lands exactly on the first bucket boundary.
	if got := quantile(buckets, 100, 0.50); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("p50 = %v, want 0.01", got)
	}
	// p75 target=75: interpolate between 0.01 and 0.1 → 0.01+0.09*25/40.
	want := 0.01 + 0.09*25/40
	if got := quantile(buckets, 100, 0.75); math.Abs(got-want) > 1e-12 {
		t.Errorf("p75 = %v, want %v", got, want)
	}
	// p99 target=99 falls in the +Inf bucket → clamp to last finite bound.
	if got := quantile(buckets, 100, 0.99); got != 0.1 {
		t.Errorf("p99 = %v, want 0.1", got)
	}
	if got := quantile(buckets, 0, 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %v, want NaN", got)
	}
}

func TestMetricLabels(t *testing.T) {
	m := parseMetrics(`
streamopt_shard_commodities{shard="0"} 2
streamopt_shard_commodities{shard="10"} 1
streamopt_shard_commodities{shard="2"} 3
streamopt_shard_solve_seconds{shard="0"} 0.5
streamopt_other 1
`)
	got := m.labels("streamopt_shard_commodities", "shard")
	want := []string{"0", "2", "10"} // numeric order, not lexical
	if len(got) != len(want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels = %v, want %v", got, want)
		}
	}
	if ls := m.labels("streamopt_absent", "shard"); len(ls) != 0 {
		t.Fatalf("labels of absent family = %v, want none", ls)
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		sec  float64
		want string
	}{
		{math.NaN(), "-"},
		{50e-6, "50µs"},
		{0.0123, "12.3ms"},
		{2.5, "2.50s"},
	}
	for _, c := range cases {
		if got := fmtDur(c.sec); got != c.want {
			t.Errorf("fmtDur(%v) = %q, want %q", c.sec, got, c.want)
		}
	}
}

// TestRealMainAgainstFakeServer drives two refreshes against a stub of
// the admission API and checks the frame carries the key figures.
func TestRealMainAgainstFakeServer(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/admitted", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"generation":3,"utility":12.5,"commodities":[
			{"name":"S1","offered":30,"admitted":30,"utility":10.0},
			{"name":"S2","offered":20,"admitted":0,"utility":0}]}`))
	})
	mux.HandleFunc("/v1/flips", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"flips":[{"generation":3,"commodity":"S2","admitted":false,
			"rate":0,"offered":20,"trace":"0af7651916cd43dd8448eb211c80319c"}]}`))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(
			"streamopt_shard_exchange_rounds_total 40\n" +
				"streamopt_shard_price_delta 1.25e-05\n" +
				"streamopt_shard_commodities{shard=\"0\"} 3\n" +
				"streamopt_shard_commodities{shard=\"1\"} 1\n" +
				"streamopt_shard_solves_total{shard=\"0\"} 12\n" +
				"streamopt_shard_solves_total{shard=\"1\"} 9\n" +
				"streamopt_shard_solve_seconds{shard=\"0\"} 0.0421\n" +
				"streamopt_shard_solve_seconds{shard=\"1\"} 0.0007\n" +
				"streamopt_shard_iterations{shard=\"0\"} 350\n" +
				"streamopt_shard_iterations{shard=\"1\"} 125\n" +
				"streamopt_build_bytes{shard=\"0\"} 1048576\n" +
				"streamopt_build_bytes{shard=\"1\"} 524288\n" +
				"streamopt_server_solves_total{start=\"warm\"} 2\n" +
				"streamopt_server_solves_total{start=\"cold\"} 1\n" +
				"streamopt_stage_seconds_bucket{stage=\"decision\",le=\"0.05\"} 4\n" +
				"streamopt_stage_seconds_bucket{stage=\"decision\",le=\"+Inf\"} 4\n" +
				"streamopt_stage_seconds_count{stage=\"decision\"} 4\n" +
				"streamopt_stage_seconds_bucket{stage=\"iterate\",le=\"0.001\"} 9\n" +
				"streamopt_stage_seconds_bucket{stage=\"iterate\",le=\"0.004\"} 13\n" +
				"streamopt_stage_seconds_bucket{stage=\"iterate\",le=\"+Inf\"} 13\n" +
				"streamopt_stage_seconds_count{stage=\"iterate\"} 13\n" +
				"streamopt_go_goroutines 23\n" +
				"streamopt_go_heap_alloc_bytes 3145728\n" +
				"streamopt_go_gcs_total 5\n" +
				"streamopt_go_gc_pause_seconds_total 0.002\n" +
				"streamopt_journal_records_total 120\n" +
				"streamopt_journal_bytes_total 65536\n" +
				"streamopt_journal_segment 1\n" +
				"streamopt_journal_unsynced_records 3\n" +
				"streamopt_journal_unsynced_bytes 2048\n" +
				"streamopt_capture_total{reason=\"slo_breach\"} 2\n" +
				"streamopt_capture_total{reason=\"divergence\"} 1\n"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	cfg := cliConfig{
		addr:     strings.TrimPrefix(ts.URL, "http://"),
		interval: time.Millisecond,
		count:    2,
		plain:    true,
		flips:    8,
		out:      &out,
	}
	if err := realMain(cfg); err != nil {
		t.Fatalf("realMain: %v", err)
	}
	frame := out.String()
	for _, want := range []string{
		"generation 3",
		"utility 12.5",
		"solves 3 (warm 2 / cold 1)",
		"decisions 4",
		"latency p50 25.0ms",
		"spans 17", // summed across stages
		"STAGE",
		"iterate            13      722µs      3.9ms", // one row per stage
		"S1",
		"rejected",
		"0af7651916cd43dd8448eb211c80319c",
		"gen/s", // second frame derives a generation rate
		"goroutines 23",
		"heap 3.0MiB",
		"gc 5 (2.0ms paused)",
		"120 records / 64.0KiB in segment 1",
		"lag 3 rec / 2.0KiB behind fsync",
		"captures 3", // summed across reasons
		"2 shards   exchange rounds 40   price Δ 1.25e-05",
		"SHARD",
		"BUILD",
		"1.0MiB", // shard 0 subset build footprint
		"42.1ms", // shard 0 last-solve latency
		"0.00",   // static solves_total → zero advance rate on frame 2
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestRealMainErrors verifies a dead server surfaces as an error, not
// a hang or a panic.
func TestRealMainErrors(t *testing.T) {
	var out strings.Builder
	err := realMain(cliConfig{
		addr: "127.0.0.1:1", interval: time.Millisecond, count: 1, plain: true, out: &out,
	})
	if err == nil {
		t.Fatal("expected connection error")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[float64]string{
		512:     "512B",
		2048:    "2.0KiB",
		3145728: "3.0MiB",
		2 << 30: "2.00GiB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%v) = %q, want %q", in, got, want)
		}
	}
}
