package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// EventType tags one JSONL record.
type EventType string

// Event types emitted by the instrumented loops.
const (
	// EventIteration is one optimizer iteration: utility, cost, admitted
	// rates and feasibility (the Figure 4/6 trajectory data).
	EventIteration EventType = "iteration"
	// EventProtocol reports the distributed-protocol cost of one
	// iteration: messages exchanged and sequential rounds (§6's O(L)
	// discussion).
	EventProtocol EventType = "protocol"
	// EventDivergence is emitted when a gradient trajectory is declared
	// diverged (NaN or sustained non-finite cost).
	EventDivergence EventType = "divergence"
	// EventBlocking reports loop-freedom tagging activity: how many
	// (commodity, node) pairs were blocked this iteration.
	EventBlocking EventType = "blocking"
	// EventServerMutation is one accepted admission-server mutation
	// (commodity added/removed, rate/utility/capacity/bandwidth change).
	EventServerMutation EventType = "server_mutation"
	// EventServerSolve is one converged admission-server re-solve: the
	// published snapshot generation, whether it warm-started, its
	// wall-clock, and the utility it settled at.
	EventServerSolve EventType = "server_solve"
	// EventSpan is one finished decision-lifecycle span (see
	// internal/obs/span): trace/span/parent IDs, name, duration, attrs.
	EventSpan EventType = "span"
	// EventHTTPRequest is one served admission-API request: route
	// pattern, method, path, status, latency, and the request's W3C
	// trace ID when a traceparent header was sent.
	EventHTTPRequest EventType = "http_request"
	// EventAdmissionFlip is one commodity crossing the admitted↔rejected
	// boundary between consecutive snapshot generations, attributed to
	// the trace ID of the mutation batch that triggered the re-solve.
	EventAdmissionFlip EventType = "admission_flip"
	// EventLoadgenEpoch is one virtual-clock epoch of a load-generator
	// run: active commodities, total offered load, mutations applied,
	// and the snapshot utility/admitted fraction observed at epoch end.
	EventLoadgenEpoch EventType = "loadgen_epoch"
	// EventLoadgenSummary is the end-of-run load-generator report:
	// epochs driven, mutations applied, wall-clock, and throughput.
	EventLoadgenSummary EventType = "loadgen_summary"
	// EventSaturationPoint is one offered-load sweep point from the
	// saturation analyzer: scale factor, mean offered load, achieved
	// utility, admitted fraction, and decision-latency stats.
	EventSaturationPoint EventType = "saturation_point"
	// EventCapture is one anomaly-triggered diagnostics bundle dump:
	// Reason names the trigger (slo_breach, cold_fallback, divergence),
	// Name the bundle directory written.
	EventCapture EventType = "capture"
)

// Event is one structured record. Fields not meaningful for a type are
// omitted from the JSON encoding; TMs is milliseconds since the
// recorder was created, so events from one run share a clock.
type Event struct {
	TMs  int64     `json:"t_ms"`
	Type EventType `json:"type"`
	Alg  string    `json:"alg,omitempty"`
	Iter int       `json:"iter"`

	// Iteration fields.
	Utility  float64   `json:"utility,omitempty"`
	Cost     float64   `json:"cost,omitempty"`
	Admitted []float64 `json:"admitted,omitempty"`
	Feasible *bool     `json:"feasible,omitempty"`

	// Protocol fields.
	Messages int `json:"messages,omitempty"`
	Rounds   int `json:"rounds,omitempty"`

	// Blocking fields.
	Tagged int `json:"tagged,omitempty"`

	// Divergence detail.
	Reason string `json:"reason,omitempty"`

	// Admission-server fields.
	Generation int64   `json:"generation,omitempty"`
	Start      string  `json:"start,omitempty"` // "warm" | "cold"
	Kind       string  `json:"kind,omitempty"`  // mutation kind
	Target     string  `json:"target,omitempty"`
	Seconds    float64 `json:"seconds,omitempty"`

	// Span fields (also Seconds for the duration). Trace doubles as the
	// request trace ID on http_request and admission_flip events.
	Trace  string            `json:"trace,omitempty"`
	Span   string            `json:"span,omitempty"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`

	// HTTP request fields (also Seconds for the latency).
	Method string `json:"method,omitempty"`
	Path   string `json:"path,omitempty"`
	Route  string `json:"route,omitempty"`
	Code   int    `json:"code,omitempty"`

	// Admission-flip fields (also Generation, Trace): the commodity, its
	// admitted rate a_j at the flip, and the new state, "admitted" or
	// "rejected".
	Commodity string  `json:"commodity,omitempty"`
	Rate      float64 `json:"rate,omitempty"`
	To        string  `json:"to,omitempty"`

	// Load-generator fields (loadgen_epoch, loadgen_summary,
	// saturation_point; also Utility, Seconds).
	Epoch        int     `json:"epoch,omitempty"`
	Active       int     `json:"active,omitempty"`
	Offered      float64 `json:"offered,omitempty"`
	Mutations    int     `json:"mutations,omitempty"`
	Scale        float64 `json:"scale,omitempty"`
	AdmittedFrac float64 `json:"admitted_frac,omitempty"`
	MutPerSec    float64 `json:"mut_per_sec,omitempty"`
	P95Seconds   float64 `json:"p95_seconds,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls.
type Sink interface {
	Emit(Event)
	Close() error
}

// dropReporting is implemented by sinks that can lose events and count
// the losses; NewRecorder wires a registry counter
// (streamopt_events_dropped_total) into any such sink it is given.
type dropReporting interface {
	SetDropCounter(*Counter)
}

// JSONLSink writes one JSON object per line to an io.Writer. Events
// that cannot be encoded or written are dropped — observability must
// never fail the solve — but, unlike silent best-effort logging, every
// drop is counted (Drops, and the streamopt_events_dropped_total
// counter when the sink is attached to a recorder). File-backed sinks
// can additionally rotate when a size cap is reached, so long soaks do
// not grow an unbounded events file.
type JSONLSink struct {
	mu      sync.Mutex
	w       io.Writer // nil after an unrecoverable rotation failure
	buf     *bufio.Writer
	c       io.Closer
	enc     *json.Encoder // bound to scratch
	scratch bytes.Buffer

	// Rotation state (zero maxBytes disables).
	path     string
	maxBytes int64
	written  int64

	drops   atomic.Uint64
	counter *Counter // optional registry mirror of drops
}

// NewJSONLSink wraps a writer. The caller keeps ownership of the
// writer; Close only flushes internal state.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: w}
	s.enc = json.NewEncoder(&s.scratch)
	return s
}

// NewFileSink creates (truncating) the named file and returns a
// buffered JSONL sink over it; Close flushes and closes the file.
func NewFileSink(path string) (*JSONLSink, error) {
	return NewRotatingFileSink(path, 0)
}

// NewRotatingFileSink is NewFileSink with a size cap: once the file
// exceeds maxBytes, it is renamed to path+".1" (replacing any previous
// rotation) and a fresh file is started, bounding total disk use at
// roughly 2×maxBytes. maxBytes ≤ 0 disables rotation.
func NewRotatingFileSink(path string, maxBytes int64) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	buf := bufio.NewWriterSize(f, 1<<16)
	s := &JSONLSink{w: buf, buf: buf, c: f, path: path, maxBytes: maxBytes}
	s.enc = json.NewEncoder(&s.scratch)
	return s, nil
}

// SetDropCounter mirrors future drops into a registry counter
// (idempotent; called by NewRecorder).
func (s *JSONLSink) SetDropCounter(c *Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counter = c
}

// Drops reports how many events were lost to encode or write errors.
func (s *JSONLSink) Drops() uint64 { return s.drops.Load() }

// drop counts one lost event; callers hold s.mu.
func (s *JSONLSink) drop() {
	s.drops.Add(1)
	if s.counter != nil {
		s.counter.Inc()
	}
}

// Emit encodes the event as one line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		s.drop()
		return
	}
	s.scratch.Reset()
	if err := s.enc.Encode(e); err != nil {
		s.drop()
		return
	}
	n, err := s.w.Write(s.scratch.Bytes())
	s.written += int64(n)
	if err != nil {
		s.drop()
		return
	}
	if s.maxBytes > 0 && s.written >= s.maxBytes {
		s.rotate()
	}
}

// rotate moves the current file to path+".1" and starts a fresh one.
// On failure the sink goes dead and subsequent emits count as drops —
// better a bounded gap in the event stream than unbounded disk growth.
// Callers hold s.mu.
func (s *JSONLSink) rotate() {
	if s.buf != nil {
		_ = s.buf.Flush()
	}
	if s.c != nil {
		_ = s.c.Close()
	}
	_ = os.Rename(s.path, s.path+".1")
	f, err := os.Create(s.path)
	if err != nil {
		s.w, s.buf, s.c = nil, nil, nil
		s.drop()
		return
	}
	s.buf = bufio.NewWriterSize(f, 1<<16)
	s.w, s.c = s.buf, f
	s.written = 0
}

// Close flushes buffered output and closes the file when owned.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.buf != nil {
		err = s.buf.Flush()
	}
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	s.w, s.buf, s.c = nil, nil, nil
	return err
}

// MultiSink fans one event out to several sinks.
type MultiSink []Sink

// Emit forwards to every sink.
func (m MultiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// SetDropCounter forwards the drop counter to every member sink that
// counts drops, so a MultiSink wired into a recorder still reports
// streamopt_events_dropped_total.
func (m MultiSink) SetDropCounter(c *Counter) {
	for _, s := range m {
		if dr, ok := s.(dropReporting); ok {
			dr.SetDropCounter(c)
		}
	}
}

// Close closes every sink, returning the first error.
func (m MultiSink) Close() error {
	var err error
	for _, s := range m {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// now is the recorder's clock base helper.
func sinceMs(start time.Time) int64 { return time.Since(start).Milliseconds() }
