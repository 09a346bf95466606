package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/obs/span"
	"repro/internal/server"
	"repro/internal/stream"
)

// waitTimeout bounds one wait for a published snapshot; running into it
// is a failed op.
const waitTimeout = 60 * time.Second

// client issues mutation calls: in-process or over HTTP.
type client interface {
	apply(o *op) (rev int64, err error)
}

type inproc struct{ srv *server.Server }

func (c inproc) apply(o *op) (int64, error) {
	switch o.Op {
	case journal.OpSetRate:
		return c.srv.SetMaxRate(o.Target, o.rate)
	case journal.OpSetRates:
		return c.srv.SetMaxRates(o.rates)
	case journal.OpRemoveCommodity:
		return c.srv.RemoveCommodity(o.Target)
	case journal.OpAddCommodity:
		return c.srv.AddCommodityJSON(o.Payload)
	case journal.OpSetCapacity:
		return c.srv.SetCapacity(o.Target, o.rate)
	}
	return 0, fmt.Errorf("bench: no in-process call for op %q", o.Op)
}

// httpClient drives the REST API over one keep-alive connection.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(addr string) *httpClient {
	return &httpClient{
		base: "http://" + addr,
		c:    &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxConnsPerHost: 1}},
	}
}

func (c *httpClient) apply(o *op) (int64, error) {
	switch o.Op {
	case journal.OpSetRate:
		return c.mutate("PATCH", "/v1/commodities/"+url.PathEscape(o.Target), mustJSON(map[string]float64{"maxRate": o.rate}))
	case journal.OpSetRates:
		return c.mutate("POST", "/v1/rates", o.Payload)
	case journal.OpRemoveCommodity:
		return c.mutate("DELETE", "/v1/commodities/"+url.PathEscape(o.Target), nil)
	case journal.OpAddCommodity:
		return c.mutate("POST", "/v1/commodities", o.Payload)
	case journal.OpSetCapacity:
		return c.mutate("POST", "/v1/nodes/"+url.PathEscape(o.Target)+"/capacity", o.Payload)
	}
	return 0, fmt.Errorf("bench: no HTTP call for op %q", o.Op)
}

func (c *httpClient) mutate(method, path string, body []byte) (int64, error) {
	data, err := c.do(method, path, body)
	if err != nil {
		return 0, err
	}
	var out struct {
		Rev int64 `json:"rev"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return 0, fmt.Errorf("bench: %s %s: %w", method, path, err)
	}
	return out.Rev, nil
}

// do reads the whole body so the connection goes back to the pool.
func (c *httpClient) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("bench: %s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("bench: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// target is one booted server with everything a run needs to drive and
// stop it.
type target struct {
	w       *workload
	base    *stream.Problem // the generated instance, untouched
	srv     *server.Server
	client  client
	http    *server.HTTPServer
	hc      *httpClient // nil unless w.http
	journal *journal.Writer
	spans   *span.Tracer // nil unless traced
	first   *server.Snapshot
}

// boot generates the instance, starts the server, waits for the first
// snapshot and, for HTTP workloads, brings the listener up: the whole of
// setup_s. scratch is where a journal goes.
func boot(w *workload, scratch string, traced bool) (*target, time.Duration, error) {
	start := time.Now()
	p, err := w.instance()
	if err != nil {
		return nil, 0, fmt.Errorf("bench: %s: generate: %w", w.name, err)
	}
	t := &target{w: w, base: p}
	opts := w.options
	if traced {
		t.spans = span.New(1<<16, nil)
		opts.Spans = t.spans
	}
	if w.journal {
		dir, err := os.MkdirTemp(scratch, "journal-")
		if err != nil {
			return nil, 0, err
		}
		// One segment for the whole run: rotating syncs the old segment
		// whatever the fsync policy, and disk latency is not what this
		// measures.
		t.journal, err = journal.Create(dir, journal.Options{Fsync: journal.FsyncNever, SegmentBytes: 1 << 30})
		if err != nil {
			return nil, 0, err
		}
		opts.Journal = t.journal
	}
	if t.srv, err = server.New(p, opts); err != nil {
		t.close()
		return nil, 0, fmt.Errorf("bench: %s: boot: %w", w.name, err)
	}
	if t.first, err = t.srv.WaitForGeneration(1, waitTimeout); err != nil {
		t.close()
		return nil, 0, fmt.Errorf("bench: %s: first snapshot: %w", w.name, err)
	}
	t.client = inproc{t.srv}
	if w.http {
		if t.http, err = t.srv.Serve("127.0.0.1:0", nil); err != nil {
			t.close()
			return nil, 0, err
		}
		t.hc = newHTTPClient(t.http.Addr())
		t.client = t.hc
	}
	return t, time.Since(start), nil
}

// close stops the listener, the solver loop and the journal, in the
// order their owners require. Errors are dropped: the run is over and
// its numbers are already taken.
func (t *target) close() {
	if t.hc != nil {
		t.hc.c.CloseIdleConnections()
	}
	if t.http != nil {
		_ = t.http.Close()
	}
	if t.srv != nil {
		_ = t.srv.Close()
	}
	if t.journal != nil {
		_ = t.journal.Close()
	}
}

// phase is what one pass over a script observed.
type phase struct {
	decisions  []float64 // ms, one per step
	acks       []float64 // ms, one per single-commodity rate call
	batchAcks  []float64 // ms, one per SetMaxRates call
	calls      int       // mutation calls accepted
	attempted  int       // calls + waits
	failed     int
	failures   []string // first few, for the report
	snapshots  int      // published snapshots observed
	feasible   int      // of those, Feasible
	converged  int      // of those, Converged
	iterations int      // solver iterations over all of them
	// trail is a running SHA-256 over every observed snapshot's
	// (generation, rev, iterations, utility bits): two passes over one
	// script must leave the same trail.
	trail   string
	utility float64 // Σ over the observed snapshots of their Utility
	// quarter is the trail after the first mark steps, the part of the
	// script the traced run replays.
	quarter string
	last    *server.Snapshot
	prev    *server.Snapshot // the one before last
	wall    time.Duration
	mem     runtime.MemStats // delta over the pass: TotalAlloc, Mallocs, NumGC, PauseTotalNs
	cpu     time.Duration    // user+system of this process over the pass
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.failures) < 8 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// checkSnapshot holds the invariants every published snapshot must
// satisfy: finite utility, 0 ≤ a_j ≤ λ_j, and a revision that never goes
// backwards.
func checkSnapshot(snap, prev *server.Snapshot) error {
	if math.IsNaN(snap.Utility) || math.IsInf(snap.Utility, 0) {
		return fmt.Errorf("generation %d: utility %v", snap.Generation, snap.Utility)
	}
	for _, c := range snap.Commodities {
		// NaN fails the first comparison's negation too.
		if !(c.Admitted >= 0 && c.Admitted <= c.Offered*(1+1e-12)) {
			return fmt.Errorf("generation %d: %s admitted %v of offered %v", snap.Generation, c.Name, c.Admitted, c.Offered)
		}
	}
	if prev != nil && snap.Rev < prev.Rev {
		return fmt.Errorf("generation %d: rev %d after rev %d", snap.Generation, snap.Rev, prev.Rev)
	}
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// play runs the script closed-loop with one client: issue a step's
// calls, wait in-process for the snapshot whose Rev covers the last of
// them, check it, go on. A decision is timed from just before the first
// call to the return of that wait.
func (t *target) play(s *script, mark int) *phase {
	ph := &phase{last: t.srv.Snapshot()}
	trail := sha256.New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, start := cpuTime(), time.Now()
	for step, st := range s.steps {
		if step == mark {
			ph.quarter = hex.EncodeToString(trail.Sum(nil))
		}
		t0 := time.Now()
		var rev int64
		sent := false
		for i := range st {
			o := &st[i]
			ph.attempted++
			a0 := time.Now()
			r, err := t.client.apply(o)
			ack := time.Since(a0)
			if err != nil {
				ph.fail("%s %s: %v", o.Op, o.Target, err)
				continue
			}
			ph.calls++
			rev, sent = r, true
			switch o.Op {
			case journal.OpSetRate:
				ph.acks = append(ph.acks, ms(ack))
			case journal.OpSetRates:
				ph.batchAcks = append(ph.batchAcks, ms(ack))
			}
		}
		if !sent {
			continue
		}
		ph.attempted++
		gens := ph.last.Generation
		for ph.last.Rev < rev {
			snap, err := t.srv.WaitForGeneration(ph.last.Generation+1, waitTimeout)
			if err != nil {
				ph.fail("wait for rev %d: %v", rev, err)
				break
			}
			if err := checkSnapshot(snap, ph.last); err != nil {
				ph.fail("%v", err)
			}
			ph.snapshots++
			if snap.Feasible {
				ph.feasible++
			}
			if snap.Converged {
				ph.converged++
			}
			ph.iterations += snap.Iterations
			ph.utility += snap.Utility
			fmt.Fprintf(trail, "%d %d %d %x\n", snap.Generation, snap.Rev, snap.Iterations, math.Float64bits(snap.Utility))
			ph.prev, ph.last = ph.last, snap
		}
		ph.decisions = append(ph.decisions, ms(time.Since(t0)))
		if t.w.coalesced && ph.last.Generation != gens+1 {
			ph.fail("decision of %d calls published %d generations, want 1", len(st), ph.last.Generation-gens)
		}
	}
	ph.wall = time.Since(start)
	ph.trail = hex.EncodeToString(trail.Sum(nil))
	if mark >= len(s.steps) {
		ph.quarter = ph.trail
	}
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	ph.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	ph.mem.Mallocs = after.Mallocs - before.Mallocs
	ph.mem.NumGC = after.NumGC - before.NumGC
	ph.mem.PauseTotalNs = after.PauseTotalNs - before.PauseTotalNs
	return ph
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1 << 20

// liveHeap is HeapAlloc after two forced collections (the second frees
// what the first one's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// peakRSS reads this process's high-water resident set from
// /proc/self/status, in bytes.
func peakRSS() (uint64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var kb uint64
		if _, err := fmt.Sscanf(string(line), "VmHWM: %d kB", &kb); err == nil {
			return kb << 10, nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc/self/status")
}

// setup boots the workload w.boots times and keeps the last; setup_s is
// the median boot. Each discarded server is collected before the next
// boot so that every boot starts from the same heap. Every boot must
// publish the same first snapshot bit for bit; same reports whether they
// did.
func setup(w *workload, scratch string) (t *target, seconds float64, same bool, err error) {
	var times []float64
	var first *server.Snapshot
	same = true
	for i := 1; ; i++ {
		var d time.Duration
		if t, d, err = boot(w, scratch, false); err != nil {
			return nil, 0, false, err
		}
		times = append(times, d.Seconds())
		if first == nil {
			first = t.first
		}
		if t.first.Utility != first.Utility || t.first.Iterations != first.Iterations {
			same = false
		}
		if i == w.boots {
			return t, median(times), same, nil
		}
		t.close()
		runtime.GC()
	}
}

// endToEnd is the untraced run: set up, play the script, and report the
// nine end-to-end metrics.
func endToEnd(w *workload, s *script, scratch string) (*outcome, error) {
	t, setupS, same, err := setup(w, scratch)
	if err != nil {
		return nil, err
	}
	defer t.close()
	ph := t.play(s, quarter(s))
	live := liveHeap() // server still open: its state is the live heap
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	out := newOutcome(ph)
	if !same {
		out.mismatch("%d boots of one instance published different first snapshots", w.boots)
	}
	if len(ph.decisions) == 0 || len(ph.acks) == 0 || ph.snapshots == 0 {
		return nil, fmt.Errorf("bench: %s: script produced %d decisions, %d acks and %d snapshots", w.name, len(ph.decisions), len(ph.acks), ph.snapshots)
	}
	n := float64(len(ph.decisions))
	out.set("setup_s", setupS)
	out.set("decision_p50_ms", median(ph.decisions))
	out.set("ack_p10_ms", percentile(ph.acks, 10))
	out.set("mutations_per_s", float64(ph.calls)/ph.wall.Seconds())
	out.set("alloc_mb_per_decision", float64(ph.mem.TotalAlloc)/mb/n)
	out.set("live_heap_mb", float64(live)/mb)
	out.set("peak_rss_mb", float64(rss)/mb)
	out.set("feasible_share", float64(ph.feasible)/float64(ph.snapshots))
	out.set("utility_mean", ph.utility/float64(ph.snapshots))
	out.pass = ph
	return out, nil
}
