package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits_total", "hits")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("level", "level")
	g.Set(2.5)
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestRegistryIdempotentCreation(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", "alg", "gradient")
	b := reg.Counter("x_total", "x", "alg", "gradient")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := reg.Counter("x_total", "x", "alg", "backpressure")
	if a == c {
		t.Fatal("different labels must return distinct counters")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 5.605; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 5.605",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusLabelsAndFamilies(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("iters_total", "iterations", "alg", "gradient").Add(7)
	reg.Counter("iters_total", "iterations", "alg", "backpressure").Add(2)
	reg.Gauge("utility", "current utility").Set(42.25)
	reg.Histogram("phase_seconds", "", []float64{1}, "phase", "forecast").Observe(0.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP iters_total iterations",
		"# TYPE iters_total counter",
		`iters_total{alg="gradient"} 7`,
		`iters_total{alg="backpressure"} 2`,
		"utility 42.25",
		`phase_seconds_bucket{phase="forecast",le="1"} 1`,
		`phase_seconds_count{phase="forecast"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family even with two label sets.
	if n := strings.Count(out, "# TYPE iters_total counter"); n != 1 {
		t.Errorf("TYPE header repeated %d times", n)
	}
}

// TestConcurrentMetrics exercises the registry under the race detector.
func TestConcurrentMetrics(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("c_total", "")
			g := reg.Gauge("g", "")
			h := reg.Histogram("h", "", []float64{0.5})
			for k := 0; k < perG; k++ {
				c.Inc()
				g.Set(float64(k))
				h.Observe(float64(k%2) * 0.75)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c_total", "").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Gauge("g", "").Value(); got != perG-1 {
		t.Fatalf("gauge = %g, want the last value every writer set, %d", got, perG-1)
	}
	if got := reg.Histogram("h", "", []float64{0.5}).Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}
