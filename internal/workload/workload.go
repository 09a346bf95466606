// Package workload provides the source-rate processes used to drive
// the dynamic-tracking experiments. The paper's §1 motivates bursty,
// unpredictable stream rates; its optimization consumes only the
// offered rates λ_j, so any process producing the same rate trajectory
// exercises the same code paths (see DESIGN.md §4, substitutions).
package workload

import (
	"math"
	"math/rand"
)

// Process yields an offered rate per epoch. Implementations must be
// deterministic functions of (seed, epoch history): calling Rate for
// epochs 0,1,2,... in order always reproduces the same trajectory.
type Process interface {
	// Rate returns λ for the given epoch; epochs are queried in
	// nondecreasing order.
	Rate(epoch int) float64
}

// Constant offers a fixed rate.
type Constant struct {
	R float64
}

// Rate implements Process.
func (c Constant) Rate(int) float64 { return c.R }

// Steps cycles through a fixed list of levels, holding each for Period
// epochs. Useful for reproducible load steps.
type Steps struct {
	Levels []float64
	Period int
}

// Rate implements Process.
func (s Steps) Rate(epoch int) float64 {
	if len(s.Levels) == 0 {
		return 0
	}
	if epoch < 0 {
		// A negative epoch would index out of range (Go's % keeps the
		// dividend's sign); clamp to the first phase.
		epoch = 0
	}
	p := s.Period
	if p <= 0 {
		p = 1
	}
	return s.Levels[(epoch/p)%len(s.Levels)]
}

// OnOff alternates between High (for OnLen epochs) and Low (for
// OffLen): the classic bursty source.
type OnOff struct {
	High, Low     float64
	OnLen, OffLen int
}

// Rate implements Process.
func (o OnOff) Rate(epoch int) float64 {
	if epoch < 0 {
		// Negative epochs would land in a negative remainder and pick
		// the wrong phase; clamp to the start of the first on-period.
		epoch = 0
	}
	on, off := o.OnLen, o.OffLen
	if on <= 0 {
		on = 1
	}
	if off <= 0 {
		off = 1
	}
	if epoch%(on+off) < on {
		return o.High
	}
	return o.Low
}

// MMPP is a Markov-modulated rate process: it holds one of Rates and
// jumps to a uniformly random other state with probability 1/MeanDwell
// each epoch. This is the standard bursty-traffic model; determinism
// comes from the seed.
type MMPP struct {
	rates     []float64
	meanDwell float64
	rng       *rand.Rand
	state     int
	lastEpoch int
}

// NewMMPP builds an MMPP over the given rates.
func NewMMPP(rates []float64, meanDwell float64, seed int64) *MMPP {
	if meanDwell < 1 {
		meanDwell = 1
	}
	return &MMPP{
		rates:     append([]float64(nil), rates...),
		meanDwell: meanDwell,
		rng:       rand.New(rand.NewSource(seed)),
		lastEpoch: -1,
	}
}

// Rate implements Process.
func (m *MMPP) Rate(epoch int) float64 {
	if len(m.rates) == 0 {
		return 0
	}
	for m.lastEpoch < epoch {
		m.lastEpoch++
		if m.lastEpoch == 0 {
			continue // initial state holds for epoch 0
		}
		if m.rng.Float64() < 1/m.meanDwell && len(m.rates) > 1 {
			next := m.rng.Intn(len(m.rates) - 1)
			if next >= m.state {
				next++
			}
			m.state = next
		}
	}
	return m.rates[m.state]
}

// Sine modulates smoothly between Base−Amp and Base+Amp with the given
// period; a gentle diurnal-style load curve.
type Sine struct {
	Base, Amp float64
	Period    int
}

// Rate implements Process.
func (s Sine) Rate(epoch int) float64 {
	p := s.Period
	if p <= 0 {
		p = 1
	}
	v := s.Base + s.Amp*math.Sin(2*math.Pi*float64(epoch)/float64(p))
	if v < 0 {
		return 0
	}
	return v
}

// Spike is a one-shot flash crowd: Base rate until Start, a linear ramp
// over Ramp epochs up to Peak, a hold of Hold epochs, a linear decay
// over Decay epochs back to Base, and Base forever after. Unlike OnOff
// it never repeats — it models the paper's §1 "sudden burst" scenario
// as a single event at a known epoch, which makes saturation sweeps
// reproducible without any randomness.
type Spike struct {
	Base, Peak        float64
	Start             int // first epoch of the ramp
	Ramp, Hold, Decay int // zero Ramp/Decay means an instant edge
}

// Rate implements Process.
func (s Spike) Rate(epoch int) float64 {
	e := epoch - s.Start
	if e < 0 {
		return s.Base
	}
	hold := s.Hold
	if s.Ramp <= 0 && hold <= 0 && s.Decay <= 0 {
		hold = 1 // an all-zero spike still fires for one epoch
	}
	if e < s.Ramp {
		return s.Base + (s.Peak-s.Base)*float64(e+1)/float64(s.Ramp+1)
	}
	e -= max(s.Ramp, 0)
	if e < hold {
		return s.Peak
	}
	e -= max(hold, 0)
	if e < s.Decay {
		return s.Peak - (s.Peak-s.Base)*float64(e+1)/float64(s.Decay+1)
	}
	return s.Base
}

// Lognormal draws an independent heavy-tailed rate each epoch:
// rate = Median·exp(Sigma·Z) with Z standard normal, so the median is
// Median and the tail weight grows with Sigma. Like MMPP, determinism
// comes from the seed and epochs must be queried in nondecreasing
// order; skipped-over epochs still consume their draws so trajectories
// are identical whether or not every epoch is read.
type Lognormal struct {
	median    float64
	sigma     float64
	rng       *rand.Rand
	lastEpoch int
	last      float64
}

// NewLognormal builds a lognormal process with the given median rate
// and log-space standard deviation sigma (clamped to ≥ 0).
func NewLognormal(median, sigma float64, seed int64) *Lognormal {
	if sigma < 0 {
		sigma = 0
	}
	return &Lognormal{
		median:    median,
		sigma:     sigma,
		rng:       rand.New(rand.NewSource(seed)),
		lastEpoch: -1,
	}
}

// Rate implements Process.
func (l *Lognormal) Rate(epoch int) float64 {
	if epoch < 0 {
		return l.median
	}
	for l.lastEpoch < epoch {
		l.lastEpoch++
		l.last = l.median * math.Exp(l.sigma*l.rng.NormFloat64())
	}
	return l.last
}
