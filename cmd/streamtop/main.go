// Command streamtop is a polling terminal dashboard for a running
// admissiond (or any server exposing the internal/server API plus
// /metrics). Each refresh it shows the live decision pipeline at a
// glance: snapshot generation and generation rate, total utility,
// warm/cold solve counts, decision-latency quantiles and one p50/p99
// row per lifecycle stage, estimated from the span-fed
// streamopt_stage_seconds{stage} histogram, per-commodity admitted
// rates, and the most recent admitted↔rejected flips with the
// trace ID of the mutation batch that caused each one (paste it into
// /debug/spans?trace=… to see the full decision lifecycle), and a
// per-shard table — one row per solver shard of admissiond -shards N,
// a single row by default: advance rate, last-solve latency, gradient
// iterations, owned commodities and build footprint. That table is the
// daemon's whole view of a solve in progress: it reports per shard
// turn, never per iteration, so the columns fill the same way at every
// shard count.
//
//	go run ./cmd/admissiond -addr :8080 &
//	go run ./cmd/streamtop -addr localhost:8080 -interval 1s
//
// -count bounds the number of refreshes (0 = until interrupted) and
// -plain suppresses the ANSI clear between frames, for piping to a
// file or for dumb terminals.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// cliConfig carries every flag so tests can drive realMain directly.
type cliConfig struct {
	addr     string
	interval time.Duration
	count    int
	plain    bool
	flips    int

	out io.Writer // defaults to stdout
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.addr, "addr", "localhost:8080", "admission server host:port")
	flag.DurationVar(&cfg.interval, "interval", 2*time.Second, "poll interval")
	flag.IntVar(&cfg.count, "count", 0, "refreshes before exiting (0 = run until interrupted)")
	flag.BoolVar(&cfg.plain, "plain", false, "no ANSI clear between frames (for piping)")
	flag.IntVar(&cfg.flips, "flips", 8, "recent admission flips shown")
	flag.Parse()
	if err := realMain(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "streamtop:", err)
		os.Exit(1)
	}
}

// admittedView mirrors the GET /v1/admitted payload.
type admittedView struct {
	Generation  int64   `json:"generation"`
	Utility     float64 `json:"utility"`
	Commodities []struct {
		Name     string  `json:"name"`
		Offered  float64 `json:"offered"`
		Admitted float64 `json:"admitted"`
		Utility  float64 `json:"utility"`
	} `json:"commodities"`
}

// flipsView mirrors the GET /v1/flips payload.
type flipsView struct {
	Flips []struct {
		Generation int64     `json:"generation"`
		Commodity  string    `json:"commodity"`
		Admitted   bool      `json:"admitted"`
		Rate       float64   `json:"rate"`
		Offered    float64   `json:"offered"`
		Trace      string    `json:"trace"`
		At         time.Time `json:"at"`
	} `json:"flips"`
}

func realMain(cfg cliConfig) error {
	if cfg.out == nil {
		cfg.out = os.Stdout
	}
	base := cfg.addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}

	var prevGen int64
	var prevAt time.Time
	var prevMetrics metricSet
	for i := 0; cfg.count == 0 || i < cfg.count; i++ {
		if i > 0 {
			time.Sleep(cfg.interval)
		}
		frame, gen, metrics, err := render(client, base, cfg, prevGen, prevAt, prevMetrics)
		if err != nil {
			return err
		}
		if !cfg.plain {
			fmt.Fprint(cfg.out, "\x1b[H\x1b[2J")
		}
		fmt.Fprint(cfg.out, frame)
		prevGen, prevAt, prevMetrics = gen, time.Now(), metrics
	}
	return nil
}

// render polls the server once and formats one frame, returning the
// generation and metric set observed so the caller can derive rates on
// the next refresh.
func render(client *http.Client, base string, cfg cliConfig, prevGen int64, prevAt time.Time, prevMetrics metricSet) (string, int64, metricSet, error) {
	var adm admittedView
	if err := getJSON(client, base+"/v1/admitted", &adm); err != nil {
		return "", 0, nil, err
	}
	var fl flipsView
	if err := getJSON(client, base+"/v1/flips", &fl); err != nil {
		return "", 0, nil, err
	}
	metrics, err := getMetrics(client, base+"/metrics")
	if err != nil {
		return "", 0, nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "streamtop  %s  %s\n\n", cfg.addr, time.Now().Format(time.RFC3339))

	genRate := ""
	if !prevAt.IsZero() {
		if dt := time.Since(prevAt).Seconds(); dt > 0 {
			genRate = fmt.Sprintf("  (%.2f gen/s)", float64(adm.Generation-prevGen)/dt)
		}
	}
	warm := metrics.value(`streamopt_server_solves_total{start="warm"}`)
	cold := metrics.value(`streamopt_server_solves_total{start="cold"}`)
	fmt.Fprintf(&b, "generation %d%s   utility %.4f   solves %.0f (warm %.0f / cold %.0f)\n",
		adm.Generation, genRate, adm.Utility, warm+cold, warm, cold)

	count, buckets := metrics.stage("decision")
	fmt.Fprintf(&b, "decisions %.0f   latency p50 %s  p95 %s  p99 %s   spans %.0f\n",
		count,
		fmtDur(quantile(buckets, count, 0.50)),
		fmtDur(quantile(buckets, count, 0.95)),
		fmtDur(quantile(buckets, count, 0.99)),
		metrics.sum("streamopt_stage_seconds_count"))
	writeStageTable(&b, metrics)

	// Runtime telemetry (present when the daemon runs the sampler).
	if metrics.has("streamopt_go_goroutines") {
		fmt.Fprintf(&b, "runtime    goroutines %.0f   heap %s   gc %.0f (%.1fms paused)\n",
			metrics.value("streamopt_go_goroutines"),
			fmtBytes(metrics.value("streamopt_go_heap_alloc_bytes")),
			metrics.value("streamopt_go_gcs_total"),
			1000*metrics.value("streamopt_go_gc_pause_seconds_total"))
	}
	// Flight-recorder health (present when journaling is on): how far
	// the journal lags behind the last fsync, and anomaly captures.
	if metrics.has("streamopt_journal_records_total") {
		fmt.Fprintf(&b, "journal    %.0f records / %s in segment %.0f   lag %.0f rec / %s behind fsync   captures %.0f\n",
			metrics.value("streamopt_journal_records_total"),
			fmtBytes(metrics.value("streamopt_journal_bytes_total")),
			metrics.value("streamopt_journal_segment"),
			metrics.value("streamopt_journal_unsynced_records"),
			fmtBytes(metrics.value("streamopt_journal_unsynced_bytes")),
			metrics.sum("streamopt_capture_total"))
	}
	// Per-shard solver view, one row per shard (a -shards 1 daemon has
	// one); the BUILD column is the sparse-subgraph build footprint.
	if metrics.has("streamopt_shard_commodities") {
		writeShardTable(&b, metrics, prevMetrics, prevAt)
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "%-16s %10s %10s %6s %12s\n", "COMMODITY", "OFFERED", "ADMITTED", "PCT", "UTILITY")
	for _, c := range adm.Commodities {
		pct := 0.0
		if c.Offered > 0 {
			pct = 100 * c.Admitted / c.Offered
		}
		fmt.Fprintf(&b, "%-16s %10.3f %10.3f %5.1f%% %12.4f\n",
			c.Name, c.Offered, c.Admitted, pct, c.Utility)
	}

	if n := len(fl.Flips); n > 0 {
		fmt.Fprintf(&b, "\nrecent flips:\n")
		lo := n - cfg.flips
		if lo < 0 {
			lo = 0
		}
		for _, f := range fl.Flips[lo:] {
			state := "admitted"
			if !f.Admitted {
				state = "rejected"
			}
			trace := f.Trace
			if trace == "" {
				trace = "-"
			}
			fmt.Fprintf(&b, "  gen %-5d %-16s → %-8s rate %.3f/%.3f  trace %s\n",
				f.Generation, f.Commodity, state, f.Rate, f.Offered, trace)
		}
	}
	return b.String(), adm.Generation, metrics, nil
}

// writeStageTable renders one row per decision-lifecycle stage — the
// span names, as the daemon labels streamopt_stage_seconds — with its
// count and p50/p99 latency.
func writeStageTable(b *strings.Builder, metrics metricSet) {
	stages := metrics.labels("streamopt_stage_seconds_count", "stage")
	if len(stages) == 0 {
		return
	}
	fmt.Fprintf(b, "%-12s %8s %10s %10s\n", "STAGE", "COUNT", "P50", "P99")
	for _, stage := range stages {
		count, buckets := metrics.stage(stage)
		fmt.Fprintf(b, "%-12s %8.0f %10s %10s\n", stage, count,
			fmtDur(quantile(buckets, count, 0.50)), fmtDur(quantile(buckets, count, 0.99)))
	}
}

// writeShardTable renders the solver view of the daemon's shard
// coordinator: its sweep totals, then one row per solver
// shard with its advance rate since the previous frame, last-solve
// latency, gradient iterations and owned commodities. The shard count
// is the number of streamopt_shard_commodities series.
func writeShardTable(b *strings.Builder, metrics, prev metricSet, prevAt time.Time) {
	shards := metrics.labels("streamopt_shard_commodities", "shard")
	if len(shards) == 0 {
		return
	}
	fmt.Fprintf(b, "shards     %d shards   exchange rounds %.0f   price Δ %.2e\n",
		len(shards),
		metrics.value("streamopt_shard_exchange_rounds_total"),
		metrics.value("streamopt_shard_price_delta"))
	fmt.Fprintf(b, "%-6s %8s %10s %12s %10s %10s\n",
		"SHARD", "COMMOD", "SOLVE/S", "LAST-SOLVE", "ITERS", "BUILD")
	for _, id := range shards {
		key := func(family string) string { return family + `{shard="` + id + `"}` }
		rate := "-"
		if prev != nil && !prevAt.IsZero() {
			if dt := time.Since(prevAt).Seconds(); dt > 0 {
				d := metrics.value(key("streamopt_shard_solves_total")) - prev.value(key("streamopt_shard_solves_total"))
				rate = fmt.Sprintf("%.2f", d/dt)
			}
		}
		fmt.Fprintf(b, "%-6s %8.0f %10s %12s %10.0f %10s\n",
			id,
			metrics.value(key("streamopt_shard_commodities")),
			rate,
			fmtDur(metrics.value(key("streamopt_shard_solve_seconds"))),
			metrics.value(key("streamopt_shard_iterations")),
			fmtBytes(metrics.value(key("streamopt_build_bytes"))))
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metricSet is a parsed Prometheus text exposition: sample name with
// its label set (verbatim, as exposed) → value.
type metricSet map[string]float64

func (m metricSet) value(key string) float64 { return m[key] }

// has reports whether any sample of the family was exposed (bare or
// with labels).
func (m metricSet) has(family string) bool {
	if _, ok := m[family]; ok {
		return true
	}
	for k := range m {
		if strings.HasPrefix(k, family+"{") {
			return true
		}
	}
	return false
}

// labels collects the values one label takes across every sample of a
// family — e.g. the shard ids of streamopt_shard_commodities — sorted
// numerically when all values are integers, lexically otherwise.
func (m metricSet) labels(family, label string) []string {
	prefix := family + "{" + label + `="`
	var out []string
	for k := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		rest := k[len(prefix):]
		if end := strings.IndexByte(rest, '"'); end >= 0 {
			out = append(out, rest[:end])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, aerr := strconv.Atoi(out[i])
		b, berr := strconv.Atoi(out[j])
		if aerr == nil && berr == nil {
			return a < b
		}
		return out[i] < out[j]
	})
	return out
}

// sum totals every sample of a labeled family — e.g. capture bundles
// across all trigger reasons.
func (m metricSet) sum(family string) float64 {
	total := m[family]
	for k, v := range m {
		if strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// stage reads one decision-lifecycle stage of the span-fed
// streamopt_stage_seconds: its observation count and its buckets.
func (m metricSet) stage(name string) (float64, []bucket) {
	sel := `stage="` + name + `"`
	return m.value("streamopt_stage_seconds_count{" + sel + "}"),
		m.histogram("streamopt_stage_seconds_bucket", sel)
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le  float64
	cum float64
}

// histogram collects the le buckets of one labeled series of a family,
// selected by its other labels verbatim as exposed (`stage="iterate"`),
// sorted ascending (+Inf last).
func (m metricSet) histogram(family, selector string) []bucket {
	var out []bucket
	prefix := family + "{" + selector + `,le="`
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			f, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = f
		}
		out = append(out, bucket{le: le, cum: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// getMetrics fetches and parses a Prometheus text page. The parser is
// deliberately minimal — name{labels} value — which is all the obs
// registry emits; malformed lines are skipped.
func getMetrics(client *http.Client, url string) (metricSet, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(data)), nil
}

func parseMetrics(text string) metricSet {
	m := make(metricSet)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		m[line[:sp]] = v
	}
	return m
}

// quantile estimates the q-quantile (0 < q < 1) from cumulative
// histogram buckets by linear interpolation within the covering
// bucket, the standard Prometheus histogram_quantile estimator. NaN
// when the histogram is empty.
func quantile(buckets []bucket, count float64, q float64) float64 {
	if count <= 0 || len(buckets) == 0 {
		return math.NaN()
	}
	target := q * count
	lowerLe, lowerCum := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				return lowerLe // all mass beyond the last finite bound
			}
			if b.cum == lowerCum {
				return b.le
			}
			return lowerLe + (b.le-lowerLe)*(target-lowerCum)/(b.cum-lowerCum)
		}
		lowerLe, lowerCum = b.le, b.cum
	}
	return lowerLe
}

// fmtDur renders a latency in seconds human-scaled (µs/ms/s).
func fmtDur(sec float64) string {
	switch {
	case math.IsNaN(sec):
		return "-"
	case sec < 1e-3:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}

// fmtBytes renders a byte count human-scaled (B/KiB/MiB/GiB).
func fmtBytes(n float64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%.0fB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", n/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1fMiB", n/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", n/(1<<30))
	}
}
