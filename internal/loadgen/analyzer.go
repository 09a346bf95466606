package loadgen

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/server"
)

// SweepPoint is one scale factor's aggregate outcome: the mean over
// the run's synced epochs plus the run's terminal observation.
type SweepPoint struct {
	Scale   float64 `json:"scale"`
	Offered float64 `json:"offered"` // mean Σλ across epochs
	// Utility and AdmittedFrac are means over synced epochs (terminal
	// values in FinalUtility/FinalAdmittedFrac).
	Utility           float64 `json:"utility"`
	AdmittedFrac      float64 `json:"admittedFrac"`
	FinalUtility      float64 `json:"finalUtility"`
	FinalAdmittedFrac float64 `json:"finalAdmittedFrac"`
	// MeanLatency/P95Latency summarize measured ingest-to-publish
	// decision latencies (seconds); -1 when nothing was measured.
	MeanLatency float64 `json:"meanLatencySeconds"`
	P95Latency  float64 `json:"p95LatencySeconds"`
	// Mutations and MutationsPerSec report driver throughput.
	Mutations       int     `json:"mutations"`
	MutationsPerSec float64 `json:"mutationsPerSec"`
	// EventStreamSHA256 pins the exact stream this point was driven
	// with, so a replay can prove byte identity.
	EventStreamSHA256 string `json:"eventStreamSha256"`
}

// Knee marks where the system saturates: utility gains flatten while
// offered load keeps rising and admission control sheds a growing
// fraction of it.
type Knee struct {
	Scale   float64 `json:"scale"`
	Offered float64 `json:"offered"`
	Utility float64 `json:"utility"`
	Reason  string  `json:"reason"`
}

// Report is the machine-readable sweep output (what the nightly soak
// job uploads).
type Report struct {
	Scenario string       `json:"scenario"`
	Seed     int64        `json:"seed"`
	Points   []SweepPoint `json:"points"`
	// Knee is nil when the sweep never saturated (all load admitted at
	// every scale) — that itself is a finding.
	Knee *Knee `json:"knee,omitempty"`
}

// Marshal renders the report as indented JSON.
func (r *Report) Marshal() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// SweepOptions tunes a saturation sweep.
type SweepOptions struct {
	// Scales are the offered-load multipliers to sweep; default
	// {0.25, 0.5, 1, 2, 4}.
	Scales []float64
	// Server configures each scale's fresh in-process server. Tests
	// use Debounce: -1 for immediate solves.
	Server server.Options
	// Driver configures each run; SyncEvery defaults to 1 so every
	// mutating epoch contributes a latency sample.
	Driver DriverOptions
	// Backend, when non-nil, supplies the backend for each scale (e.g.
	// an HTTP target); the default builds a fresh in-process server
	// per scale from the compiled base problem.
	Backend func(c *Compiled) (Backend, func(), error)
}

// Sweep compiles the scenario at each scale factor, drives it, and
// reduces the runs to a saturation report with the utility knee
// located. Each scale gets a fresh backend so points are independent.
func Sweep(sc *Scenario, opts SweepOptions) (*Report, error) {
	scales := opts.Scales
	if len(scales) == 0 {
		scales = []float64{0.25, 0.5, 1, 2, 4}
	}
	scales = append([]float64(nil), scales...)
	sort.Float64s(scales)
	if opts.Driver.SyncEvery == 0 {
		opts.Driver.SyncEvery = 1
	}
	rep := &Report{Scenario: sc.Name, Seed: sc.Seed}
	for _, scale := range scales {
		c, err := Compile(sc, scale)
		if err != nil {
			return nil, err
		}
		hash, err := c.EventStreamHash()
		if err != nil {
			return nil, err
		}
		be, cleanup, err := backendFor(c, opts)
		if err != nil {
			return nil, fmt.Errorf("loadgen: sweep scale %g: %w", scale, err)
		}
		res, err := Run(c, be, opts.Driver)
		cleanup()
		if err != nil {
			return nil, fmt.Errorf("loadgen: sweep scale %g: %w", scale, err)
		}
		pt := reduce(res, scale)
		pt.EventStreamSHA256 = hash
		rep.Points = append(rep.Points, pt)
	}
	rep.Knee = findKnee(rep.Points)
	return rep, nil
}

func backendFor(c *Compiled, opts SweepOptions) (Backend, func(), error) {
	if opts.Backend != nil {
		return opts.Backend(c)
	}
	srv, err := server.New(c.Base, opts.Server)
	if err != nil {
		return nil, nil, err
	}
	return InProc{S: srv}, func() { srv.Close() }, nil
}

// reduce folds one run into its sweep point.
func reduce(res *RunResult, scale float64) SweepPoint {
	pt := SweepPoint{
		Scale:             scale,
		FinalUtility:      res.Final.Utility,
		FinalAdmittedFrac: res.Final.AdmittedFrac(),
		Mutations:         res.Mutations,
		MutationsPerSec:   res.MutationsPerSec,
		MeanLatency:       -1,
		P95Latency:        -1,
	}
	var offered float64
	var latencies []float64
	synced := 0
	for _, s := range res.Samples {
		offered += s.Offered
		if s.LatencySeconds >= 0 {
			synced++
			pt.Utility += s.Utility
			pt.AdmittedFrac += s.AdmittedFrac
			latencies = append(latencies, s.LatencySeconds)
		}
	}
	if n := len(res.Samples); n > 0 {
		pt.Offered = offered / float64(n)
	}
	if synced > 0 {
		pt.Utility /= float64(synced)
		pt.AdmittedFrac /= float64(synced)
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		var total float64
		for _, l := range latencies {
			total += l
		}
		pt.MeanLatency = total / float64(len(latencies))
		idx := (95*len(latencies) + 99) / 100
		if idx > 0 {
			idx--
		}
		pt.P95Latency = latencies[idx]
	}
	return pt
}

// findKnee locates the first sweep point (in offered-load order) where
// the marginal utility per unit of extra offered load collapses below
// half the initial slope while the admitted fraction has dropped — the
// admission controller is now shedding a growing share of a still-
// rising offer. Returns nil if the sweep never saturates.
func findKnee(points []SweepPoint) *Knee {
	if len(points) < 2 {
		return nil
	}
	pts := append([]SweepPoint(nil), points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Offered < pts[j].Offered })
	base := pts[0]
	dOff := pts[1].Offered - base.Offered
	if dOff <= 0 {
		return nil
	}
	initialSlope := (pts[1].Utility - base.Utility) / dOff
	for i := 1; i < len(pts); i++ {
		dOff := pts[i].Offered - pts[i-1].Offered
		if dOff <= 0 {
			continue
		}
		slope := (pts[i].Utility - pts[i-1].Utility) / dOff
		flat := initialSlope > 0 && slope < 0.5*initialSlope
		shedding := pts[i].AdmittedFrac < 0.95*base.AdmittedFrac
		if flat && shedding {
			return &Knee{
				Scale:   pts[i].Scale,
				Offered: pts[i].Offered,
				Utility: pts[i].Utility,
				Reason: fmt.Sprintf(
					"marginal utility %.4f/unit fell below half the initial %.4f/unit while admitted fraction dropped %.1f%% → %.1f%%",
					slope, initialSlope, 100*base.AdmittedFrac, 100*pts[i].AdmittedFrac),
			}
		}
	}
	return nil
}
