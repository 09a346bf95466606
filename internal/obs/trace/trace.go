// Package trace is the solver introspection recorder: a bounded,
// sampled ring buffer of per-iteration solver state. A Ring attaches to
// an obs.Recorder (Recorder.SetTracer) and captures every stride-th
// TraceSample — admitted rates, utility, cost, step scale, and the
// per-phase wall-clock split of the iteration — overwriting the oldest
// sample once the capacity is reached, so memory stays fixed no matter
// how long the solver runs.
//
// The design constraint mirrors internal/obs: a nil *Ring is a valid,
// inert tracer, and the nil-recorder path through the engines remains
// zero-allocation (the Ring is only ever reached from an enabled
// recorder).
package trace

import (
	"sync"

	"repro/internal/obs"
)

// Sample is one retained trace row. Unlike obs.TraceSample, the
// Admitted slice is owned by the Sample (copied at capture time).
type Sample struct {
	// Seq is the 0-based index of this sample among all iterations
	// observed by the ring (not just the retained ones), so gaps from
	// sampling and wraparound remain visible.
	Seq uint64 `json:"seq"`
	// Iter is the engine's own iteration counter.
	Iter int `json:"iter"`
	// Utility is Σ_j U_j(a_j); Cost is A = Y + εD.
	Utility float64 `json:"utility"`
	Cost    float64 `json:"cost"`
	// Eta is the step scale at this iteration (fixed for the plain
	// engine, live for the adaptive controller).
	Eta      float64 `json:"eta"`
	Feasible bool    `json:"feasible"`
	// Admitted is a_j per commodity.
	Admitted []float64 `json:"admitted"`
	// PhaseSeconds is the iteration's wall-clock split across the Step
	// phases, indexed by obs.Phase (forecast, marginal — tags included — and update).
	PhaseSeconds [obs.NumPhases]float64 `json:"phaseSeconds"`
}

// Ring is the bounded sampled recorder. Create with New; the zero value
// and nil are inert. Safe for one writer (the solver goroutine through
// obs.Recorder) and any number of concurrent readers.
type Ring struct {
	mu     sync.Mutex
	stride int
	buf    []Sample
	next   int    // write cursor
	filled bool   // buf has wrapped at least once
	seen   uint64 // iterations observed, sampled or not
}

// Defaults used by the daemons' flags.
const (
	DefaultCapacity = 4096
	DefaultStride   = 10
)

// New builds a ring holding up to capacity samples, keeping every
// stride-th observed iteration. capacity ≤ 0 uses DefaultCapacity;
// stride ≤ 0 uses DefaultStride; stride 1 keeps every iteration.
func New(capacity, stride int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if stride <= 0 {
		stride = DefaultStride
	}
	return &Ring{stride: stride, buf: make([]Sample, 0, capacity)}
}

// TraceIteration implements obs.Tracer: it samples every stride-th
// call, copying the admitted slice (which the recorder only lends for
// the duration of the call).
func (r *Ring) TraceIteration(s obs.TraceSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.seen
	r.seen++
	if seq%uint64(r.stride) != 0 {
		return
	}
	smp := Sample{
		Seq: seq, Iter: s.Iter,
		Utility: s.Utility, Cost: s.Cost, Eta: s.Eta,
		Feasible:     s.Feasible,
		Admitted:     append([]float64(nil), s.Admitted...),
		PhaseSeconds: s.PhaseSeconds,
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, smp)
		return
	}
	r.buf[r.next] = smp
	r.next = (r.next + 1) % len(r.buf)
	r.filled = true
}

// Samples returns the retained samples, oldest first, as a copy safe to
// hold across further writes. Nil ring returns nil.
func (r *Ring) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.buf))
	if r.filled {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Len reports how many samples are currently retained.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Cap reports the ring's fixed capacity (0 for a nil ring).
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Stride reports the sampling stride (0 for a nil ring).
func (r *Ring) Stride() int {
	if r == nil {
		return 0
	}
	return r.stride
}

// Seen reports how many iterations the ring observed (sampled or not).
func (r *Ring) Seen() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// Reset discards all samples and the observation counter, keeping the
// capacity and stride. The admission server resets the ring at the
// start of each solve so /debug/trace shows the latest convergence run.
func (r *Ring) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = r.buf[:0]
	r.next, r.filled, r.seen = 0, false, 0
}
