package loadgen

import (
	"encoding/json"
	"testing"
	"time"
)

// findKnee on synthetic curves: a sweep that saturates must locate the
// knee where utility flattens while admission drops; a sweep that keeps
// admitting everything must report none.
func TestFindKneeSynthetic(t *testing.T) {
	saturating := []SweepPoint{
		{Scale: 0.25, Offered: 25, Utility: 10, AdmittedFrac: 0.99},
		{Scale: 0.5, Offered: 50, Utility: 20, AdmittedFrac: 0.98},
		{Scale: 1, Offered: 100, Utility: 29, AdmittedFrac: 0.97},
		{Scale: 2, Offered: 200, Utility: 31, AdmittedFrac: 0.60},
		{Scale: 4, Offered: 400, Utility: 31.5, AdmittedFrac: 0.30},
	}
	knee := findKnee(saturating)
	if knee == nil {
		t.Fatal("saturating sweep: no knee found")
	}
	if knee.Scale != 2 {
		t.Fatalf("knee at scale %g, want 2", knee.Scale)
	}
	if knee.Reason == "" {
		t.Fatal("knee carries no reason")
	}

	linear := []SweepPoint{
		{Scale: 0.5, Offered: 50, Utility: 10, AdmittedFrac: 0.99},
		{Scale: 1, Offered: 100, Utility: 20, AdmittedFrac: 0.99},
		{Scale: 2, Offered: 200, Utility: 40, AdmittedFrac: 0.98},
	}
	if k := findKnee(linear); k != nil {
		t.Fatalf("unsaturated sweep reported a knee: %+v", k)
	}
	if k := findKnee(saturating[:1]); k != nil {
		t.Fatal("single point cannot have a knee")
	}
}

// The acceptance bar: sweeping offered load over the bundled scenarios
// must locate a utility knee — admitted fraction falling while offered
// load still rises — on at least these two.
func TestSweepFindsKneeOnBundledScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep drives full scenarios; skipped in -short")
	}
	for _, name := range []string{"flashcrowd.json", "diurnal.json"} {
		t.Run(name, func(t *testing.T) {
			sc := loadScenario(t, name)
			rep, err := Sweep(sc, SweepOptions{
				Scales: []float64{0.25, 1, 4, 10},
				Server: testServerOptions(),
				Driver: DriverOptions{SyncEvery: 1, SyncTimeout: 30 * time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Points) != 4 {
				t.Fatalf("%d points, want 4", len(rep.Points))
			}
			for i := 1; i < len(rep.Points); i++ {
				if rep.Points[i].Offered <= rep.Points[i-1].Offered {
					t.Fatalf("offered load not rising across scales: %+v", rep.Points)
				}
			}
			if rep.Knee == nil {
				data, _ := rep.Marshal()
				t.Fatalf("no knee found; report:\n%s", data)
			}
			low, high := rep.Points[0], rep.Points[len(rep.Points)-1]
			if high.AdmittedFrac >= 0.95*low.AdmittedFrac {
				t.Fatalf("admission never dropped: low %.3f high %.3f", low.AdmittedFrac, high.AdmittedFrac)
			}
			for _, pt := range rep.Points {
				if pt.EventStreamSHA256 == "" {
					t.Fatal("point missing event-stream hash")
				}
				if pt.MeanLatency < 0 || pt.P95Latency < pt.MeanLatency {
					t.Fatalf("latency stats not measured: %+v", pt)
				}
			}
			// The report must round-trip as JSON (the nightly job's
			// artifact is consumed programmatically).
			data, err := rep.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back.Knee == nil || back.Knee.Scale != rep.Knee.Scale {
				t.Fatal("report did not round-trip")
			}
		})
	}
}
