package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRuntimeSampler(t *testing.T) {
	reg := NewRegistry()
	stop := StartRuntimeSampler(reg, time.Hour) // immediate sample only
	defer stop()

	if g := reg.Gauge("streamopt_go_goroutines", "").Value(); g < 1 {
		t.Fatalf("goroutines gauge = %v", g)
	}
	if g := reg.Gauge("streamopt_go_heap_alloc_bytes", "").Value(); g <= 0 {
		t.Fatalf("heap gauge = %v", g)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"streamopt_go_goroutines",
		"streamopt_go_heap_alloc_bytes",
		"streamopt_go_gc_pause_seconds_total",
		"streamopt_go_gcs_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %s", want)
		}
	}

	stop()
	stop() // idempotent
}

func TestRecorderCapture(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg)
	rec.Capture("slo_breach")
	rec.Capture("slo_breach")
	rec.Capture("divergence")

	if v := reg.Counter("streamopt_capture_total", "", "reason", "slo_breach").Value(); v != 2 {
		t.Fatalf("slo_breach count = %v", v)
	}
	if v := reg.Counter("streamopt_capture_total", "", "reason", "divergence").Value(); v != 1 {
		t.Fatalf("divergence count = %v", v)
	}

	var nilRec *Recorder
	nilRec.Capture("slo_breach") // must not panic
}
