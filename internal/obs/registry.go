// Package obs is the admission server's observability layer: a
// stdlib-only metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus-text exposition. The server's durable
// record of each decision is its journal (internal/journal), not this
// package.
// Stage latencies come from one place, the decision-lifecycle spans
// (internal/obs/span) a Recorder observes into streamopt_stage_seconds.
//
// The design constraint is that the *disabled* path must be free: a nil
// *Recorder is a valid recorder whose every method is a nil-check and a
// return, so the hot per-iteration loops pay nothing when observability
// is off (asserted by TestDisabledRecorderAllocates in this package).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric, safe for concurrent
// use. The zero value is usable but unregistered; create registered
// counters through Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotone by contract).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets (cumulative,
// Prometheus-style: bucket i counts observations ≤ Buckets[i], with an
// implicit +Inf bucket at the end). Safe for concurrent use.
type Histogram struct {
	// uppers holds the finite bucket upper bounds, ascending.
	uppers []float64
	counts []atomic.Uint64 // len(uppers)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// DefaultTimeBuckets spans 1µs to ~16s in powers of four, a good fit
// for decision stages, from a µs build patch to a seconds-long solve.
var DefaultTimeBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4, 16,
}

func newHistogram(uppers []float64) *Histogram {
	us := append([]float64(nil), uppers...)
	sort.Float64s(us)
	return &Histogram{uppers: us, counts: make([]atomic.Uint64, len(us)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric is one registered time series.
type metric struct {
	family string // metric name without labels
	help   string
	kind   string // "counter" | "gauge" | "histogram"
	labels string // rendered `k="v",...` (may be empty)

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders them for scraping. All
// methods are safe for concurrent use; metric creation is idempotent
// (same name+labels returns the existing instance), so hot paths may
// call Counter/Gauge/Histogram repeatedly, though caching the returned
// pointer is cheaper.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
	order   []string // insertion order of keys, families grouped on render
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Labels is an alternating key, value, key, value... list. An odd
// trailing key is dropped.
func renderLabels(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return b.String()
}

func (r *Registry) get(family, help, kind string, kv []string, mk func() *metric) *metric {
	labels := renderLabels(kv)
	key := family + "{" + labels + "}"
	r.mu.RLock()
	m, ok := r.metrics[key]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok = r.metrics[key]; ok {
		return m
	}
	m = mk()
	m.family, m.help, m.kind, m.labels = family, help, kind, labels
	r.metrics[key] = m
	r.order = append(r.order, key)
	return m
}

// Counter returns the registered counter, creating it on first use.
// kv is an alternating label key/value list.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	return r.get(name, help, "counter", kv, func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	return r.get(name, help, "gauge", kv, func() *metric {
		return &metric{gauge: &Gauge{}}
	}).gauge
}

// Histogram returns the registered histogram, creating it on first use
// with the given finite bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, kv ...string) *Histogram {
	return r.get(name, help, "histogram", kv, func() *metric {
		return &metric{hist: newHistogram(buckets)}
	}).hist
}

// snapshot returns the metrics grouped by family in first-registration
// order (Prometheus wants one HELP/TYPE header per family).
func (r *Registry) snapshot() [][]*metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var groups [][]*metric
	index := make(map[string]int)
	for _, key := range r.order {
		m := r.metrics[key]
		if i, ok := index[m.family]; ok {
			groups[i] = append(groups[i], m)
			continue
		}
		index[m.family] = len(groups)
		groups = append(groups, []*metric{m})
	}
	return groups
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, family := range r.snapshot() {
		head := family[0]
		if head.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", head.family, head.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", head.family, head.kind); err != nil {
			return err
		}
		for _, m := range family {
			if err := writeMetric(w, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeMetric(w io.Writer, m *metric) error {
	brace := func(extra string) string {
		switch {
		case m.labels == "" && extra == "":
			return ""
		case m.labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + m.labels + "}"
		default:
			return "{" + m.labels + "," + extra + "}"
		}
	}
	switch m.kind {
	case "counter":
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.family, brace(""), m.counter.Value())
		return err
	case "gauge":
		_, err := fmt.Fprintf(w, "%s%s %s\n", m.family, brace(""), formatFloat(m.gauge.Value()))
		return err
	case "histogram":
		h := m.hist
		cum := uint64(0)
		for i, upper := range h.uppers {
			cum += h.counts[i].Load()
			le := fmt.Sprintf(`le="%s"`, formatFloat(upper))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.family, brace(le), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.uppers)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.family, brace(`le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.family, brace(""), formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.family, brace(""), h.Count())
		return err
	}
	return nil
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}
