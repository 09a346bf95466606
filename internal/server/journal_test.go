package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/shard"
)

// newestRecords syncs the journal and reads its newest n records back
// from disk, oldest first.
func newestRecords(t *testing.T, jw *journal.Writer, n int) []journal.Record {
	t.Helper()
	if err := jw.Sync(); err != nil {
		t.Fatal(err)
	}
	log, err := journal.ReadDir(jw.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return log.Records[max(0, len(log.Records)-n):]
}

func TestServerJournalsTrajectory(t *testing.T) {
	rec := obs.NewRecorder(nil)
	opts := journaled(t, testOptions(rec))
	s, _ := start(t, opts)
	jw, dir := opts.Journal, opts.Journal.Dir()

	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetMaxRate("c1", 4); err != nil {
		t.Fatal(err)
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Fatal("clean shutdown left a torn tail")
	}
	if len(log.Records) == 0 || log.Records[0].Kind != journal.KindCheckpoint {
		t.Fatalf("journal does not open with a checkpoint: %+v", log.Records[:1])
	}
	boot := log.Records[0].Checkpoint
	if !boot.Restart || boot.Solver == nil {
		t.Fatalf("boot checkpoint = %+v", boot)
	}
	if boot.Solver.MaxIters != 1500 || boot.Solver.Epsilon != 0.2 {
		t.Fatalf("boot solver params = %+v", boot.Solver)
	}
	if log.Records[0].Rev != 1 {
		t.Fatalf("boot checkpoint rev = %d, want 1", log.Records[0].Rev)
	}

	var muts, digests []journal.Record
	for _, r := range log.Records {
		switch r.Kind {
		case journal.KindMutation:
			muts = append(muts, r)
		case journal.KindDigest:
			digests = append(digests, r)
		}
	}
	if len(muts) != 1 {
		t.Fatalf("journaled %d mutations, want 1", len(muts))
	}
	m := muts[0]
	if m.Rev != 2 || m.Mutation.Op != journal.OpSetRate || m.Mutation.Target != "c1" {
		t.Fatalf("mutation record = %+v", m)
	}
	var pl journal.RatePayload
	if err := json.Unmarshal(m.Mutation.Payload, &pl); err != nil || pl.Rate != 4 {
		t.Fatalf("mutation payload = %s (%v)", m.Mutation.Payload, err)
	}
	if len(digests) < 2 {
		t.Fatalf("journaled %d digests, want >= 2", len(digests))
	}
	last := digests[len(digests)-1].Digest
	if last.Generation != snap.Generation || last.Utility != snap.Utility {
		t.Fatalf("last digest = %+v, snapshot gen %d utility %v", last, snap.Generation, snap.Utility)
	}
	if want := snap.JournalDigest(nil).AdmittedHash; last.AdmittedHash != want {
		t.Fatalf("digest hash %s, recomputed %s", last.AdmittedHash, want)
	}

	// The journal recovers to the server's final desired problem.
	recd, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := recd.Problem.CommodityByName("c1")
	if c.MaxRate != 4 {
		t.Fatalf("recovered MaxRate = %v", c.MaxRate)
	}
}

// SolverOptions inverts what New records: every solver field of Options
// survives the trip through the restart checkpoint's parameters.
// TestJournalCarriesClientTrace: the journal is the durable record of
// a decision, so a client's traceparent reaches both the mutation it
// sent and the digest of the generation that answered it, and the
// digest's clock reads at or after the mutation's.
func TestJournalCarriesClientTrace(t *testing.T) {
	opts := testOptions(nil)
	opts.Spans = span.New(256, nil)
	opts = journaled(t, opts)
	s, ts := start(t, opts)
	jw := opts.Journal
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest("PATCH", ts.URL+"/v1/commodities/c1", strings.NewReader(`{"maxRate": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", clientTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH status = %d", resp.StatusCode)
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	tail := newestRecords(t, jw, 2)
	if len(tail) != 2 || tail[0].Kind != journal.KindMutation || tail[1].Kind != journal.KindDigest ||
		tail[1].Digest.Generation != snap.Generation {
		t.Fatalf("journal tail = %+v, want the mutation and the digest of generation %d", tail, snap.Generation)
	}
	const wantTrace = "0af7651916cd43dd8448eb211c80319c"
	mut, dig := tail[0], tail[1]
	if mut.Trace != wantTrace || dig.Trace != wantTrace {
		t.Errorf("mutation trace %q, digest trace %q, want the client's %s", mut.Trace, dig.Trace, wantTrace)
	}
	if dig.MonoNanos < mut.MonoNanos {
		t.Errorf("digest clock %d ns before its mutation's %d ns", dig.MonoNanos, mut.MonoNanos)
	}
}

func TestSolverOptionsRoundTrip(t *testing.T) {
	want := SolverOptions(&journal.SolverParams{
		Epsilon: 0.1, Eta: 0.03, MaxIters: 123, StationaryTol: 5e-3,
		Shards: 4, PlacementSalt: 7,
	})
	if !want.paperMode {
		t.Fatal("parameters without Serving did not select the paper mode")
	}
	if got := SolverOptions(want.solverParams(shard.New(want.shardConfig()))); !reflect.DeepEqual(got, want) {
		t.Fatalf("SolverOptions(solverParams(%+v)) = %+v", want, got)
	}
	// Unset knobs record the coordinator's defaults, the values journals
	// have always recorded for them.
	var zero Options
	got := zero.solverParams(shard.New(zero.shardConfig()))
	wantParams := &journal.SolverParams{
		Epsilon: 0.2, Eta: 0.04, MaxIters: 4000, StationaryTol: 1e-3,
		Serving: true, Momentum: shard.ServingMomentum,
	}
	if !reflect.DeepEqual(got, wantParams) {
		t.Fatalf("default options record %+v, want %+v", got, wantParams)
	}
}

// A generation is visible only once everything it writes is written: a
// reader that sees generation g (without WaitForGeneration's 1 ms poll
// to hide behind) finds g's digest the newest journal record and g the
// newest history entry, so the solver is idle when a waiter acts.
func TestSnapshotVisibleAfterItsDigest(t *testing.T) {
	opts := journaled(t, testOptions(nil))
	s, _ := start(t, opts)
	jw := opts.Journal
	seen, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := s.SetMaxRate("c1", 3+float64(i%5)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(waitBudget)
		for s.Snapshot().Generation == seen.Generation {
			if time.Now().After(deadline) {
				t.Fatalf("no generation after %d", seen.Generation)
			}
			runtime.Gosched()
		}
		seen = s.Snapshot()
		tail := newestRecords(t, jw, 1)
		if len(tail) != 1 || tail[0].Kind != journal.KindDigest || tail[0].Digest.Generation != seen.Generation {
			t.Fatalf("generation %d visible, newest journal record %+v", seen.Generation, tail)
		}
		if h := s.History(); len(h) == 0 || h[len(h)-1].Generation != seen.Generation {
			t.Fatalf("generation %d visible, not yet in the history ring", seen.Generation)
		}
	}
}

func TestServerPeriodicCheckpoints(t *testing.T) {
	rec := obs.NewRecorder(nil)
	opts := testOptions(rec)
	opts.CheckpointEvery = 2
	opts = journaled(t, opts)
	s, _ := start(t, opts)
	jw, dir := opts.Journal, opts.Journal.Dir()

	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.SetMaxRate("c1", 3+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.Close()
	_ = jw.Close()

	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	periodic := 0
	for _, r := range log.Records {
		if r.Kind == journal.KindCheckpoint && !r.Checkpoint.Restart {
			periodic++
		}
	}
	if periodic != 2 { // 5 mutations at every-2 cadence → after #2 and #4
		t.Fatalf("wrote %d periodic checkpoints, want 2", periodic)
	}
	// Recovery still lands on the final state regardless of which
	// checkpoint it starts from.
	recd, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := recd.Problem.CommodityByName("c1")
	if c.MaxRate != 7 {
		t.Fatalf("recovered MaxRate = %v, want 7", c.MaxRate)
	}
}

func TestAnomalyCaptureOnSLOBreach(t *testing.T) {
	rec := obs.NewRecorder(nil)
	opts := testOptions(rec)
	opts.SLO = time.Nanosecond // every decision breaches
	opts.CaptureDir = filepath.Join(t.TempDir(), "bundles")
	opts = journaled(t, opts)
	s, _ := start(t, opts)
	jw := opts.Journal
	h, err := s.Serve("127.0.0.1:0", rec.Registry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })

	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetMaxRate("c1", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitForGeneration(2, waitBudget); err != nil {
		t.Fatal(err)
	}

	// The capture goroutine is async; poll for the bundle.
	deadline := time.Now().Add(waitBudget)
	var bundles []BundleInfo
	for {
		bundles, err = s.Bundles()
		if err != nil {
			t.Fatal(err)
		}
		if len(bundles) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no capture bundle appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b := bundles[0]
	if b.Reason != "slo_breach" {
		t.Fatalf("bundle reason = %q", b.Reason)
	}
	// The bundle copies no journal records: it names where they are.
	want := []string{"heap.pprof", "goroutine.pprof", "meta.json"}
	if !reflect.DeepEqual(b.Files, want) {
		t.Fatalf("bundle files = %v, want %v", b.Files, want)
	}
	for _, f := range want {
		if _, err := os.Stat(filepath.Join(opts.CaptureDir, b.Name, f)); err != nil {
			t.Fatalf("bundle file missing on disk: %v", err)
		}
	}
	if b.JournalDir != jw.Dir() || b.JournalSegment == "" {
		t.Fatalf("bundle journal = %q segment %q, want %q and a segment", b.JournalDir, b.JournalSegment, jw.Dir())
	}
	// The named segment of the closed journal holds the digest of the
	// bundle's generation: read that segment alone.
	_ = s.Close()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(b.JournalDir, b.JournalSegment))
	if err != nil {
		t.Fatal(err)
	}
	alone := t.TempDir()
	if err := os.WriteFile(filepath.Join(alone, b.JournalSegment), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := journal.ReadDir(alone)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range log.Records {
		found = found || r.Kind == journal.KindDigest && r.Digest.Generation == b.Generation
	}
	if !found {
		t.Fatalf("segment %s holds no digest of generation %d", b.JournalSegment, b.Generation)
	}

	// Counted and listable.
	if v := rec.Registry().Counter("streamopt_capture_total", "", "reason", "slo_breach").Value(); v < 1 {
		t.Fatalf("capture counter = %d", v)
	}
	resp, err := http.Get("http://" + h.Addr() + "/debug/bundles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/bundles = %d", resp.StatusCode)
	}
	var out struct {
		Bundles []BundleInfo `json:"bundles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Bundles) == 0 || out.Bundles[0].Reason != "slo_breach" {
		t.Fatalf("listed bundles = %+v", out.Bundles)
	}
}

// TestCaptureSequenceSurvivesRestart: a server that boots into a
// capture directory an earlier server wrote (a daemon recovering into
// the same -journal-dir) numbers its bundles after the ones already
// there, instead of renaming its first bundle onto cap-000001-<reason>.
func TestCaptureSequenceSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundles")
	for boot := 1; boot <= 2; boot++ {
		failed := make(chan string, 1)
		opts := testOptions(nil)
		opts.SLO = time.Nanosecond // every decision breaches
		opts.CaptureDir = dir
		opts.Logf = func(format string, args ...any) {
			if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "capture") && strings.Contains(msg, "failed") {
				select {
				case failed <- msg:
				default:
				}
			}
		}
		s, _ := start(t, opts)
		if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SetMaxRate("c1", float64(3+boot)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WaitForGeneration(2, waitBudget); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(waitBudget)
		for {
			bundles, err := s.Bundles()
			if err != nil {
				t.Fatal(err)
			}
			if len(bundles) == boot {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("boot %d: bundles %+v, want %d", boot, bundles, boot)
			}
			select {
			case msg := <-failed:
				t.Fatalf("boot %d: %s", boot, msg)
			case <-time.After(5 * time.Millisecond):
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBundlesEndpointDisabled(t *testing.T) {
	_, ts := start(t, testOptions(obs.NewRecorder(nil)))
	resp, err := http.Get(ts.URL + "/debug/bundles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/bundles without CaptureDir = %d, want 404", resp.StatusCode)
	}
}
