// Package span is the decision-lifecycle tracer: cheap hierarchical
// spans with W3C trace-context interop and a bounded in-memory ring of
// finished spans.
//
// The admission server uses it to tie one HTTP mutation to the solve
// generation that incorporated it: a root "decision" span opens at
// mutation ingress (adopting the client's `traceparent` when one was
// sent), child spans cover the coalescing wait and the solve phases,
// and the root closes when the first snapshot containing the mutation
// publishes — so `GET /debug/spans?trace=...` returns the full
// ingress→coalesce→solve→publish tree for any request, and the gap
// between root start and root end IS the decision latency. Spans are
// also the one source of stage latencies on /metrics: the emitter the
// daemon builds its tracer over (obs.Recorder) observes every finished
// span into streamopt_stage_seconds{stage=<span name>}.
//
// The design constraint mirrors internal/obs: a nil *Tracer is a valid,
// inert tracer. Every method on a nil *Tracer or nil *Active is a
// nil-check and a return — zero allocations, no clock reads — so the
// disabled path costs nothing on the solver loop (asserted by
// TestNilTracerAllocates).
package span

import (
	"encoding/hex"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace identifier shared by every span of
// one decision lifecycle. The zero value is invalid per the spec.
type TraceID [16]byte

// SpanID is the 8-byte W3C span identifier. The zero value is invalid.
type SpanID [8]byte

// Context identifies one position in a trace: which trace, which span.
// The zero Context is "no context" — starting a span under it begins a
// fresh trace.
type Context struct {
	Trace TraceID
	Span  SpanID
	// Flags is the W3C trace-flags byte; bit 0 is "sampled".
	Flags byte
}

// Valid reports whether the context carries a usable trace and span ID
// (both must be non-zero, per the W3C trace-context spec).
func (c Context) Valid() bool {
	return c.Trace != TraceID{} && c.Span != SpanID{}
}

// TraceHex renders the trace ID as 32 lowercase hex characters, or ""
// for the zero trace.
func (c Context) TraceHex() string {
	if c.Trace == (TraceID{}) {
		return ""
	}
	return hex.EncodeToString(c.Trace[:])
}

// ParseTraceparent parses a W3C `traceparent` header value:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	  00        32 hex      16 hex        2 hex
//
// Hex digits must be lowercase, the version must not be "ff", and the
// trace and parent IDs must be non-zero. Per the spec, a version other
// than 00 may carry extra fields after the flags; they are ignored. An
// empty or malformed value returns ErrTraceparent and the zero Context,
// which is safe to pass to Tracer.Start (it begins a fresh trace).
func ParseTraceparent(s string) (Context, error) {
	var c Context
	if len(s) < 55 {
		return Context{}, ErrTraceparent
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return Context{}, ErrTraceparent
	}
	ver, ok := parseHexByte(s[0:2])
	if !ok || ver == 0xff {
		return Context{}, ErrTraceparent
	}
	if ver == 0 && len(s) != 55 {
		return Context{}, ErrTraceparent
	}
	if ver != 0 && len(s) > 55 && s[55] != '-' {
		return Context{}, ErrTraceparent
	}
	if !decodeLowerHex(c.Trace[:], s[3:35]) || !decodeLowerHex(c.Span[:], s[36:52]) {
		return Context{}, ErrTraceparent
	}
	flags, ok := parseHexByte(s[53:55])
	if !ok {
		return Context{}, ErrTraceparent
	}
	c.Flags = flags
	if !c.Valid() {
		return Context{}, ErrTraceparent
	}
	return c, nil
}

// ErrTraceparent is returned by ParseTraceparent for any value that is
// not a well-formed W3C traceparent.
var ErrTraceparent = errTraceparent{}

type errTraceparent struct{}

func (errTraceparent) Error() string { return "span: malformed traceparent" }

// decodeLowerHex fills dst from the lowercase hex string src (the W3C
// spec forbids uppercase); it reports whether every digit was valid.
func decodeLowerHex(dst []byte, src string) bool {
	for i := range dst {
		hi, ok1 := hexVal(src[2*i])
		lo, ok2 := hexVal(src[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func parseHexByte(s string) (byte, bool) {
	hi, ok1 := hexVal(s[0])
	lo, ok2 := hexVal(s[1])
	return hi<<4 | lo, ok1 && ok2
}

func hexVal(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// Span is one finished span as retained by the ring and served on
// GET /debug/spans. All fields are immutable after End.
type Span struct {
	Trace  string `json:"trace"`
	ID     string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUnixMs is the wall-clock start in Unix milliseconds;
	// DurationMs the span's length. Milliseconds suit the decision
	// timescale (solves are ms to seconds); the Emitter receives full
	// float seconds.
	StartUnixMs int64             `json:"startUnixMs"`
	DurationMs  float64           `json:"durationMs"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// Emitter receives the name and duration of every finished span;
// *obs.Recorder implements it (Recorder.Span), observing the duration
// into streamopt_stage_seconds. A nil-pointer Recorder inside the
// interface is fine — its method nil-checks.
type Emitter interface {
	Span(name string, seconds float64)
}

// Tracer issues spans and retains the last Cap finished ones in a ring.
// A nil *Tracer is valid and inert. Safe for concurrent use from any
// number of goroutines.
type Tracer struct {
	em Emitter

	mu       sync.Mutex
	buf      []Span
	next     int
	filled   bool
	started  uint64
	finished uint64
}

// DefaultCapacity is the ring size used when New is given cap ≤ 0.
const DefaultCapacity = 4096

// New builds a tracer retaining up to capacity finished spans
// (DefaultCapacity when ≤ 0). em may be nil (ring only, no export).
func New(capacity int, em Emitter) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{em: em, buf: make([]Span, 0, capacity)}
}

// Active is one in-flight span. It is owned by the goroutine(s) that
// hold it; SetAttr and End are mutex-guarded so a span may be annotated
// from the HTTP goroutine and ended from the solver goroutine. A nil
// *Active (from a nil Tracer) is valid and inert.
type Active struct {
	t *Tracer

	mu     sync.Mutex
	ctx    Context
	parent SpanID
	name   string
	start  time.Time
	attrs  map[string]string
	ended  bool
}

// Start opens a span under parent (zero parent begins a fresh trace),
// starting now. Returns nil on a nil tracer.
func (t *Tracer) Start(name string, parent Context) *Active {
	if t == nil {
		return nil
	}
	return t.StartAt(name, parent, time.Now())
}

// StartAt is Start with an explicit start time (zero means now) — used
// to backdate a span to when an HTTP request actually arrived.
func (t *Tracer) StartAt(name string, parent Context, at time.Time) *Active {
	if t == nil {
		return nil
	}
	if at.IsZero() {
		at = time.Now()
	}
	a := &Active{t: t, name: name, start: at}
	if parent.Trace != (TraceID{}) {
		a.ctx.Trace = parent.Trace
		a.parent = parent.Span
		a.ctx.Flags = parent.Flags
	} else {
		randFill(a.ctx.Trace[:])
		a.ctx.Flags = 0x01 // sampled
	}
	randFill(a.ctx.Span[:])
	t.mu.Lock()
	t.started++
	t.mu.Unlock()
	return a
}

// randFill fills b with non-zero pseudo-random bytes (the W3C spec
// forbids all-zero IDs; re-rolling on the astronomically unlikely zero
// keeps Valid() honest).
func randFill(b []byte) {
	for {
		zero := true
		for i := 0; i < len(b); i += 8 {
			v := rand.Uint64()
			for j := i; j < len(b) && j < i+8; j++ {
				b[j] = byte(v)
				v >>= 8
				if b[j] != 0 {
					zero = false
				}
			}
		}
		if !zero {
			return
		}
	}
}

// Context returns the span's own context, for starting children or
// injecting into an outbound `traceparent`. Zero on nil.
func (a *Active) Context() Context {
	if a == nil {
		return Context{}
	}
	return a.ctx
}

// SetAttr annotates the span. Attributes set after End are dropped.
func (a *Active) SetAttr(key, val string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ended {
		return
	}
	if a.attrs == nil {
		a.attrs = make(map[string]string, 4)
	}
	a.attrs[key] = val
}

// SetAttrInt annotates the span with an integer value.
func (a *Active) SetAttrInt(key string, val int64) {
	a.SetAttr(key, strconv.FormatInt(val, 10))
}

// SetAttrFloat annotates the span with a float value.
func (a *Active) SetAttrFloat(key string, val float64) {
	a.SetAttr(key, strconv.FormatFloat(val, 'g', -1, 64))
}

// SetAttrBool annotates the span with a boolean value.
func (a *Active) SetAttrBool(key string, val bool) {
	a.SetAttr(key, strconv.FormatBool(val))
}

// End finishes the span: it is appended to the tracer's ring
// (overwriting the oldest once full) and exported through the emitter.
// End is idempotent; only the first call records.
func (a *Active) End() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	dur := time.Since(a.start)
	s := Span{
		Trace:       hex.EncodeToString(a.ctx.Trace[:]),
		ID:          hex.EncodeToString(a.ctx.Span[:]),
		Name:        a.name,
		StartUnixMs: a.start.UnixMilli(),
		DurationMs:  float64(dur) / float64(time.Millisecond),
		Attrs:       a.attrs,
	}
	if a.parent != (SpanID{}) {
		s.Parent = hex.EncodeToString(a.parent[:])
	}
	a.mu.Unlock()

	t := a.t
	t.mu.Lock()
	t.finished++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.next = (t.next + 1) % len(t.buf)
		t.filled = true
	}
	t.mu.Unlock()
	if t.em != nil {
		t.em.Span(s.Name, dur.Seconds())
	}
}

// Filter selects spans from the ring. Zero fields match everything.
type Filter struct {
	// Trace matches the 32-hex trace ID exactly.
	Trace string
	// Name matches the span name exactly.
	Name string
	// AttrKey/AttrVal match spans carrying that attribute; AttrKey
	// alone matches any value.
	AttrKey string
	AttrVal string
	// MinDuration drops spans shorter than this.
	MinDuration time.Duration
}

func (f Filter) match(s Span) bool {
	if f.Trace != "" && s.Trace != f.Trace {
		return false
	}
	if f.Name != "" && s.Name != f.Name {
		return false
	}
	if f.AttrKey != "" {
		v, ok := s.Attrs[f.AttrKey]
		if !ok || (f.AttrVal != "" && v != f.AttrVal) {
			return false
		}
	}
	if f.MinDuration > 0 && s.DurationMs < float64(f.MinDuration)/float64(time.Millisecond) {
		return false
	}
	return true
}

// Spans returns the retained spans matching f, oldest first, as a copy
// safe to hold across further writes. Nil tracer returns nil.
func (t *Tracer) Spans(f Filter) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	add := func(ss []Span) {
		for _, s := range ss {
			if f.match(s) {
				out = append(out, s)
			}
		}
	}
	if t.filled {
		add(t.buf[t.next:])
		add(t.buf[:t.next])
	} else {
		add(t.buf)
	}
	return out
}

// Len reports how many finished spans the ring currently retains.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Cap reports the ring's fixed capacity (0 for nil).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return cap(t.buf)
}

// Stats reports how many spans were started and finished over the
// tracer's lifetime (finished − retained = spans evicted by the ring).
func (t *Tracer) Stats() (started, finished uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started, t.finished
}
