package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// startJournaledServer builds a server writing through a journal in a
// temp dir, returning both plus the dir.
func startJournaledServer(t *testing.T, opts Options) (*Server, *journal.Writer, string) {
	t.Helper()
	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = jw
	s, err := New(toyProblem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = s.Close()
		_ = jw.Close()
	})
	return s, jw, dir
}

func TestServerJournalsTrajectory(t *testing.T) {
	rec := obs.NewRecorder(nil, nil)
	s, jw, dir := startJournaledServer(t, testOptions(rec))

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
func TestSolverOptionsRoundTrip(t *testing.T) {
	want := Options{
		Epsilon: 0.1, Eta: 0.03, MaxIters: 123, StationaryTol: 5e-3, Workers: 3, PaperMode: true,
		Shards: 4, PlacementSalt: 7, PriceExchangeEvery: 10, PriceDamping: 0.25,
	}
	if got := SolverOptions(want.solverParams()); !reflect.DeepEqual(got, want) {
		t.Fatalf("SolverOptions(solverParams(%+v)) = %+v", want, got)
	}
}

// A generation is visible only once everything it writes is written: a
// reader that sees generation g (without WaitForGeneration's 1 ms poll
// to hide behind) finds g's digest the newest journal record and g the
// newest history entry, so the solver is idle when a waiter acts.
func TestSnapshotVisibleAfterItsDigest(t *testing.T) {
	s, jw, _ := startJournaledServer(t, testOptions(nil))
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
		tail := jw.Tail(1)
		if len(tail) != 1 || tail[0].Kind != journal.KindDigest || tail[0].Digest.Generation != seen.Generation {
			t.Fatalf("generation %d visible, newest journal record %+v", seen.Generation, tail)
		}
		if h := s.History(); len(h) == 0 || h[len(h)-1].Generation != seen.Generation {
			t.Fatalf("generation %d visible, not yet in the history ring", seen.Generation)
		}
	}
}

func TestServerPeriodicCheckpoints(t *testing.T) {
	rec := obs.NewRecorder(nil, nil)
	opts := testOptions(rec)
	opts.CheckpointEvery = 2
	s, jw, dir := startJournaledServer(t, opts)

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
	rec := obs.NewRecorder(nil, nil)
	opts := testOptions(rec)
	opts.SLO = time.Nanosecond // every decision breaches
	opts.CaptureDir = filepath.Join(t.TempDir(), "bundles")
	s, _, _ := startJournaledServer(t, opts)
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
	for _, want := range []string{"journal-tail.jsonl", "heap.pprof", "goroutine.pprof", "meta.json"} {
		found := false
		for _, f := range b.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("bundle lacks %s (has %v)", want, b.Files)
		}
		if _, err := os.Stat(filepath.Join(opts.CaptureDir, b.Name, want)); err != nil {
			t.Fatalf("bundle file missing on disk: %v", err)
		}
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

func TestBundlesEndpointDisabled(t *testing.T) {
	rec := obs.NewRecorder(nil, nil)
	s, ts := startServer(t, rec)
	_ = s
	resp, err := http.Get(ts.URL + "/debug/bundles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/bundles without CaptureDir = %d, want 404", resp.StatusCode)
	}
}
