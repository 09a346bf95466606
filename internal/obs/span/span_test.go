package span

import (
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

const (
	goodTrace  = "0af7651916cd43dd8448eb211c80319c"
	goodParent = "b7ad6b7169203331"
	goodTP     = "00-" + goodTrace + "-" + goodParent + "-01"
)

func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"canonical", goodTP, true},
		{"flags zero", "00-" + goodTrace + "-" + goodParent + "-00", true},
		{"future version", "cc-" + goodTrace + "-" + goodParent + "-01", true},
		{"future version with suffix", "cc-" + goodTrace + "-" + goodParent + "-01-extra-stuff", true},
		{"empty", "", false},
		{"too short", "00-abc-def-01", false},
		{"version ff", "ff-" + goodTrace + "-" + goodParent + "-01", false},
		{"version not hex", "zz-" + goodTrace + "-" + goodParent + "-01", false},
		{"uppercase trace", "00-" + strings.ToUpper(goodTrace) + "-" + goodParent + "-01", false},
		{"uppercase parent", "00-" + goodTrace + "-" + strings.ToUpper(goodParent) + "-01", false},
		{"zero trace", "00-00000000000000000000000000000000-" + goodParent + "-01", false},
		{"zero parent", "00-" + goodTrace + "-0000000000000000-01", false},
		{"missing dash", "00_" + goodTrace + "-" + goodParent + "-01", false},
		{"version 00 trailing", goodTP + "-extra", false},
		{"version 00 trailing junk", goodTP + "x", false},
		{"future version bad suffix", "cc-" + goodTrace + "-" + goodParent + "-01x", false},
		{"bad flags", "00-" + goodTrace + "-" + goodParent + "-0g", false},
		{"trace not hex", "00-" + strings.Replace(goodTrace, "0", "g", 1) + "-" + goodParent + "-01", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, err := ParseTraceparent(c.in)
			if c.ok {
				if err != nil {
					t.Fatalf("ParseTraceparent(%q) error: %v", c.in, err)
				}
				if !ctx.Valid() {
					t.Fatalf("parsed context not valid: %+v", ctx)
				}
				if spanHex := hex.EncodeToString(ctx.Span[:]); ctx.TraceHex() != goodTrace || spanHex != goodParent {
					t.Errorf("IDs = %s/%s, want %s/%s", ctx.TraceHex(), spanHex, goodTrace, goodParent)
				}
			} else {
				if err == nil {
					t.Fatalf("ParseTraceparent(%q) = %+v, want error", c.in, ctx)
				}
				if ctx != (Context{}) {
					t.Errorf("error case returned non-zero context %+v", ctx)
				}
			}
		})
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	ctx, err := ParseTraceparent(goodTP)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Traceparent(); got != goodTP {
		t.Errorf("Traceparent() = %q, want %q", got, goodTP)
	}
	back, err := ParseTraceparent(ctx.Traceparent())
	if err != nil {
		t.Fatal(err)
	}
	if back != ctx {
		t.Errorf("round trip: %+v != %+v", back, ctx)
	}
}

func FuzzParseTraceparent(f *testing.F) {
	f.Add(goodTP)
	f.Add("00-" + goodTrace + "-" + goodParent + "-00")
	f.Add("cc-" + goodTrace + "-" + goodParent + "-01-more")
	f.Add("")
	f.Add(strings.Repeat("-", 60))
	f.Fuzz(func(t *testing.T, s string) {
		ctx, err := ParseTraceparent(s)
		if err != nil {
			if ctx != (Context{}) {
				t.Fatalf("error with non-zero context: %+v", ctx)
			}
			return
		}
		if !ctx.Valid() {
			t.Fatalf("accepted invalid context from %q", s)
		}
		// Re-rendering (always version 00) must reparse to the same IDs.
		back, err := ParseTraceparent(ctx.Traceparent())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", ctx.Traceparent(), err)
		}
		if back != ctx {
			t.Fatalf("round trip mismatch: %+v != %+v", back, ctx)
		}
	})
}

// collectEmitter records the name and duration of every finished span.
type collectEmitter struct {
	mu      sync.Mutex
	names   []string
	seconds []float64
}

func (e *collectEmitter) Span(name string, seconds float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.names = append(e.names, name)
	e.seconds = append(e.seconds, seconds)
}

func TestSpanLifecycle(t *testing.T) {
	em := &collectEmitter{}
	tr := New(16, em)

	root := tr.Start("decision", Context{})
	rctx := root.Context()
	if !rctx.Valid() {
		t.Fatal("root context invalid")
	}
	if rctx.Flags&0x01 == 0 {
		t.Error("fresh trace should be sampled")
	}
	child := tr.Start("solve", rctx)
	cctx := child.Context()
	if cctx.Trace != rctx.Trace {
		t.Error("child did not inherit trace ID")
	}
	if cctx.Span == rctx.Span {
		t.Error("child must get a fresh span ID")
	}
	child.SetAttr("kind", "set_max_rate")
	child.SetAttrInt("rev", 7)
	child.SetAttrFloat("rate", 2.5)
	child.SetAttrBool("warm", true)
	child.End()
	child.SetAttr("late", "dropped") // after End: ignored
	child.End()                      // idempotent
	root.End()

	if started, finished := tr.Stats(); started != 2 || finished != 2 {
		t.Errorf("stats = %d/%d, want 2/2", started, finished)
	}
	spans := tr.Spans(Filter{})
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(spans))
	}
	// Oldest first: child ended before root.
	if spans[0].Name != "solve" || spans[1].Name != "decision" {
		t.Errorf("order = %s,%s; want solve,decision", spans[0].Name, spans[1].Name)
	}
	got := spans[0]
	if want := hex.EncodeToString(rctx.Span[:]); got.Parent != want {
		t.Errorf("child parent = %q, want %q", got.Parent, want)
	}
	want := map[string]string{"kind": "set_max_rate", "rev": "7", "rate": "2.5", "warm": "true"}
	for k, v := range want {
		if got.Attrs[k] != v {
			t.Errorf("attr %s = %q, want %q", k, got.Attrs[k], v)
		}
	}
	if _, ok := got.Attrs["late"]; ok {
		t.Error("attribute set after End leaked")
	}
	em.mu.Lock()
	defer em.mu.Unlock()
	if len(em.names) != 2 || em.names[0] != "solve" || em.names[1] != "decision" {
		t.Fatalf("emitter saw %v, want [solve decision]", em.names)
	}
	for i, sec := range em.seconds {
		if math.Abs(sec*1e3-spans[i].DurationMs) > 1e-9 {
			t.Errorf("emitted %s duration %gs, ring has %gms", em.names[i], sec, spans[i].DurationMs)
		}
	}
}

func TestStartAtBackdates(t *testing.T) {
	tr := New(4, nil)
	a := tr.StartAt("ingress", Context{}, time.Now().Add(-time.Second))
	a.End()
	s := tr.Spans(Filter{})[0]
	if s.DurationMs < 900 {
		t.Errorf("backdated span duration = %vms, want ≥900ms", s.DurationMs)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := New(3, nil)
	for i := 0; i < 5; i++ {
		a := tr.Start(fmt.Sprintf("s%d", i), Context{})
		a.End()
	}
	if tr.Len() != 3 || tr.Cap() != 3 {
		t.Fatalf("len/cap = %d/%d, want 3/3", tr.Len(), tr.Cap())
	}
	spans := tr.Spans(Filter{})
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "s2,s3,s4" {
		t.Errorf("retained %s, want s2,s3,s4 (oldest first)", got)
	}
	if started, finished := tr.Stats(); started != 5 || finished != 5 {
		t.Errorf("stats = %d/%d, want 5/5", started, finished)
	}
}

func TestRingCapacityOne(t *testing.T) {
	tr := New(1, nil)
	for i := 0; i < 3; i++ {
		a := tr.Start(fmt.Sprintf("s%d", i), Context{})
		a.End()
	}
	spans := tr.Spans(Filter{})
	if len(spans) != 1 || spans[0].Name != "s2" {
		t.Errorf("cap-1 ring retained %+v, want just s2", spans)
	}
}

func TestDefaultCapacity(t *testing.T) {
	if got := New(0, nil).Cap(); got != DefaultCapacity {
		t.Errorf("New(0).Cap() = %d, want %d", got, DefaultCapacity)
	}
	if got := New(-5, nil).Cap(); got != DefaultCapacity {
		t.Errorf("New(-5).Cap() = %d, want %d", got, DefaultCapacity)
	}
}

func TestFilter(t *testing.T) {
	tr := New(8, nil)
	a := tr.Start("decision", Context{})
	a.SetAttr("commodity", "S1")
	a.End()
	b := tr.Start("solve", a.Context())
	b.End()
	c := tr.StartAt("slow", Context{}, time.Now().Add(-time.Second))
	c.End()

	if got := len(tr.Spans(Filter{Trace: a.Context().TraceHex()})); got != 2 {
		t.Errorf("trace filter matched %d, want 2", got)
	}
	if got := len(tr.Spans(Filter{Name: "solve"})); got != 1 {
		t.Errorf("name filter matched %d, want 1", got)
	}
	if got := len(tr.Spans(Filter{AttrKey: "commodity"})); got != 1 {
		t.Errorf("attr-key filter matched %d, want 1", got)
	}
	if got := len(tr.Spans(Filter{AttrKey: "commodity", AttrVal: "S1"})); got != 1 {
		t.Errorf("attr filter matched %d, want 1", got)
	}
	if got := len(tr.Spans(Filter{AttrKey: "commodity", AttrVal: "S2"})); got != 0 {
		t.Errorf("attr mismatch matched %d, want 0", got)
	}
	if got := len(tr.Spans(Filter{MinDuration: 500 * time.Millisecond})); got != 1 {
		t.Errorf("min-duration filter matched %d, want 1", got)
	}
}

// TestNilTracerAllocates pins the disabled path at zero allocations:
// observability that is off must cost nothing.
func TestNilTracerAllocates(t *testing.T) {
	var tr *Tracer
	n := mallocs(100, func() {
		a := tr.Start("decision", Context{})
		a.SetAttr("k", "v")
		a.SetAttrInt("n", 1)
		_ = a.Context()
		a.End()
		_ = tr.Spans(Filter{})
		_, _ = tr.Stats()
		_ = tr.Len()
		_ = tr.Cap()
	})
	if n != 0 {
		t.Errorf("nil tracer path allocates %d objects in 100 runs, want 0", n)
	}
}

// TestConcurrentTracing hammers one tracer from many goroutines — the
// race detector (CI's server-race matrix covers this package) is the
// real assertion; the counts are a sanity floor.
func TestConcurrentTracing(t *testing.T) {
	tr := New(64, &collectEmitter{})
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				root := tr.Start("decision", Context{})
				child := tr.Start("solve", root.Context())
				child.SetAttrInt("i", int64(i))
				child.End()
				root.End()
				if i%10 == 0 {
					_ = tr.Spans(Filter{Name: "solve"})
					_, _ = tr.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	started, finished := tr.Stats()
	if want := uint64(2 * workers * perWorker); started != want || finished != want {
		t.Errorf("stats = %d/%d, want %d/%d", started, finished, want, want)
	}
	if tr.Len() != 64 {
		t.Errorf("ring len = %d, want full at 64", tr.Len())
	}
}

// mallocs counts the heap allocations of runs calls of f after one
// warm-up call, at GOMAXPROCS 1 as testing.AllocsPerRun measures, in
// total: AllocsPerRun's integer mean reads a few allocations spread
// over many runs as 0. A full GC after the warm-up call keeps a cycle
// the warm-up started from allocating inside the measured window.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
