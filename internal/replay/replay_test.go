package replay

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/utility"
)

const waitBudget = 20 * time.Second

// toyProblem builds the two-server chain the server tests use: servers
// a, b (capacity 10), sinks t1, t2, one commodity a→t1.
func toyProblem(t *testing.T) *stream.Problem {
	t.Helper()
	net := stream.NewNetwork()
	a, err := net.AddServer("a", 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.AddServer("b", 10)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := net.AddSink("t1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := net.AddSink("t2")
	if err != nil {
		t.Fatal(err)
	}
	ab, err := net.AddLink(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	bt1, err := net.AddLink(b, t1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddLink(b, t2, 10); err != nil {
		t.Fatal(err)
	}
	p := stream.NewProblem(net)
	c1, err := p.AddCommodity("c1", a, t1, 8, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetEdge(c1, ab, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetEdge(c1, bt1, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func serverOptions() server.Options {
	return server.Options{
		MaxIters:      1500,
		StationaryTol: 1e-3,
		Debounce:      2 * time.Millisecond,
		Logf:          func(string, ...any) {},
	}
}

// paperOptions is serverOptions in the paper mode, which a server takes
// only from a recorded journal's solver parameters (SolverOptions).
func paperOptions() server.Options {
	base := serverOptions()
	opts := server.SolverOptions(&journal.SolverParams{MaxIters: base.MaxIters, StationaryTol: base.StationaryTol})
	opts.Debounce, opts.Logf = base.Debounce, base.Logf
	return opts
}

// record runs one journaled server lifetime in dir, applying mutate,
// and returns the journal writer closed.
func record(t *testing.T, dir string, p *stream.Problem, mutate func(s *server.Server)) {
	t.Helper()
	recordWith(t, dir, p, serverOptions(), mutate)
}

// recordWith is record with the server's options given.
func recordWith(t *testing.T, dir string, p *stream.Problem, opts server.Options, mutate func(s *server.Server)) {
	t.Helper()
	jw, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = jw
	opts.CheckpointEvery = 2
	s, err := server.New(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	mutate(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitNext waits for the snapshot that answers the mutation just made:
// the first whose Rev covers the server's. It may already be out — a
// re-solve that only reparameterizes a shard can publish before the
// caller gets here — so "the generation after the current one" would
// wait for a solve nobody asked for.
func waitNext(t *testing.T, s *server.Server) {
	t.Helper()
	rev := s.Rev()
	for {
		gen := int64(0)
		if snap := s.Snapshot(); snap != nil {
			if snap.Rev >= rev {
				return
			}
			gen = snap.Generation
		}
		if _, err := s.WaitForGeneration(gen+1, waitBudget); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVerifyCleanRecording(t *testing.T) {
	dir := t.TempDir()
	spec, err := json.Marshal(map[string]any{
		"name": "c2", "source": "a", "sink": "t2", "maxRate": 4.0,
		"utility": map[string]any{"type": "log", "weight": 2.0, "scale": 1.0},
		"edges": []map[string]any{
			{"from": "a", "to": "b", "beta": 1, "cost": 1},
			{"from": "b", "to": "t2", "beta": 1, "cost": 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	record(t, dir, toyProblem(t), func(s *server.Server) {
		if _, err := s.SetMaxRate("c1", 4); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
		if _, err := s.AddCommodityJSON(spec); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
		if _, err := s.SetCapacity("b", 6); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
		if _, err := s.SetMaxRates(map[string]float64{"c1": 5, "c2": 3}); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
		if _, err := s.RemoveCommodity("c2"); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
	})

	rep, err := Verify(dir, Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, m := range rep.Mismatches {
			t.Errorf("mismatch: %s", m)
		}
		t.Fatal("replay diverged from recording")
	}
	if rep.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", rep.Runs)
	}
	if rep.Mutations != 5 {
		t.Fatalf("Mutations = %d, want 5", rep.Mutations)
	}
	if rep.Digests < 6 { // boot solve + one per awaited mutation
		t.Fatalf("Digests = %d, want >= 6", rep.Digests)
	}
	if rep.CheckpointsVerified < 1 {
		t.Fatalf("CheckpointsVerified = %d, want >= 1", rep.CheckpointsVerified)
	}
	if rep.Truncated {
		t.Fatal("clean recording reported truncated")
	}
}

// A serving run records its heavy-ball μ on the restart checkpoint. One
// recorded without it — every serving journal from before the step had
// momentum — boots a server without momentum (server.SolverOptions), so
// both replay bitwise.
func TestVerifyMomentumRecordings(t *testing.T) {
	noMomentum := server.SolverOptions(&journal.SolverParams{
		Epsilon: 0.2, Eta: 0.04, MaxIters: 1500, StationaryTol: 1e-3, Serving: true,
	})
	noMomentum.Debounce, noMomentum.Logf = 2*time.Millisecond, func(string, ...any) {}
	for _, tc := range []struct {
		name string
		opts server.Options
		mu   float64
	}{
		{"mu=0", noMomentum, 0},
		{"mu=0.9", serverOptions(), 0.9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			recordWith(t, dir, toyProblem(t), tc.opts, func(s *server.Server) {
				for _, rate := range []float64{4, 9, 6} {
					if _, err := s.SetMaxRate("c1", rate); err != nil {
						t.Fatal(err)
					}
					waitNext(t, s)
				}
				if _, err := s.SetCapacity("b", 6); err != nil {
					t.Fatal(err)
				}
				waitNext(t, s)
			})

			segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments %v, %v", segs, err)
			}
			raw, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.Contains(raw, []byte(`"momentum":`)); got != (tc.mu > 0) {
				t.Fatalf("journal has a momentum field: %v, want %v", got, tc.mu > 0)
			}
			log, err := journal.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			boot := log.Records[0].Checkpoint
			if boot == nil || !boot.Restart || boot.Solver == nil || !boot.Solver.Serving || boot.Solver.Momentum != tc.mu {
				t.Fatalf("boot checkpoint %+v, want a serving restart at μ %v", boot, tc.mu)
			}

			rep, err := Verify(dir, Options{Timeout: waitBudget})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range rep.Mismatches {
				t.Errorf("mismatch: %s", m)
			}
			if rep.Digests < 5 {
				t.Fatalf("Digests = %d, want >= 5", rep.Digests)
			}
		})
	}
}

// TestVerifyJournalFromBeforeServerApply replays a journal recorded at
// the last commit whose server wrote each op's payload by hand (PR 15:
// `cmd/loadgen -scenario examples/scenarios/churn.json -run -journal`,
// one shard): arrivals, departures, rate batches and scale_capacity
// faults. Every mutation now goes through Server.Apply and
// journal.Apply; the record format and the trajectory must not have
// moved.
func TestVerifyJournalFromBeforeServerApply(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Digests compare floats bit for bit, and compilers for other
		// architectures may fuse the solver's multiply-adds.
		t.Skip("journal was recorded on amd64")
	}
	rep, err := Verify("testdata/churn-parent", Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	if rep.Mutations != 30 || rep.Digests != 25 || rep.Truncated {
		t.Fatalf("replayed %d mutations, %d digests (truncated %v); the recording holds 30 and 25",
			rep.Mutations, rep.Digests, rep.Truncated)
	}
}

// TestVerifyServingJournalFromBeforeCarriedRho replays a journal the
// default serving step recorded at the last commit before the sweep
// carried ρ down a chain and the wave called Linear utilities on their
// concrete type (`cmd/loadgen -scenario examples/scenarios/churn.json
// -run -journal`, one shard; the boot checkpoint reads
// "serving":true). churn-parent is a paper-mode recording, so this is
// the checked-in trajectory that pins the serving step — backtracking,
// heavy ball, rate-space warm starts — across kernel changes: every
// digest must match bit for bit. A copy whose restart checkpoint also
// records "workers":4, as every journal of a daemon run with the
// retired -workers 4 does, must recover to the same state and replay
// just as clean.
func TestVerifyServingJournalFromBeforeCarriedRho(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("journal was recorded on amd64")
	}
	const dir = "testdata/churn-serving-parent"
	want, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, dir string }{
		{"as-recorded", dir},
		{"workers=4", withSolverKey(t, dir, `"workers":4`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := journal.Recover(tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			if *got.Solver != *want.Solver || got.Rev != want.Rev {
				t.Fatalf("recovered solver %+v at rev %d, recording %+v at rev %d", *got.Solver, got.Rev, *want.Solver, want.Rev)
			}
			rep, err := Verify(tc.dir, Options{Timeout: waitBudget})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range rep.Mismatches {
				t.Errorf("mismatch: %s", m)
			}
			if rep.Mutations != 30 || rep.Digests != 25 || rep.Truncated {
				t.Fatalf("replayed %d mutations, %d digests (truncated %v); the recording holds 30 and 25",
					rep.Mutations, rep.Digests, rep.Truncated)
			}
		})
	}
}

// withSolverKey copies the one-segment journal in dir to a temporary
// directory, adding the JSON member kv to the solver parameters of its
// restart checkpoints and framing each record again.
func withSolverKey(t *testing.T, dir, kv string) string {
	t.Helper()
	const seg = "journal-00000000.wal"
	data, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	var framed []byte
	for off := 0; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		payload := bytes.Replace(data[off+8:off+8+n], []byte(`"solver":{`), []byte(`"solver":{`+kv+`,`), 1)
		off += 8 + n
		framed = binary.LittleEndian.AppendUint32(framed, uint32(len(payload)))
		framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		framed = append(framed, payload...)
	}
	if !bytes.Contains(framed, []byte(kv)) {
		t.Fatalf("%s has no restart checkpoint with solver parameters", dir)
	}
	out := t.TempDir()
	if err := os.WriteFile(filepath.Join(out, seg), framed, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVerifyTwoFieldPatch: a PATCH that sets rate and utility commits
// as one group but journals one record per revision, and the periodic
// checkpoint that falls due inside the group (CheckpointEvery is 2, the
// rate is the second journaled mutation) is written at the group's last
// revision — the only one whose state the server holds. The recording
// must replay clean, checkpoint bytes included.
func TestVerifyTwoFieldPatch(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, toyProblem(t), func(s *server.Server) {
		if _, err := s.SetMaxRate("c1", 6); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
		req := httptest.NewRequest("PATCH", "/v1/commodities/c1",
			strings.NewReader(`{"maxRate":4,"utility":{"type":"log","weight":2}}`))
		w := httptest.NewRecorder()
		s.Handler(nil).ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("PATCH = %d: %s", w.Code, w.Body)
		}
		waitNext(t, s)
	})
	rep, err := Verify(dir, Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	if rep.Mutations != 3 || rep.CheckpointsVerified != 1 {
		t.Fatalf("replayed %d mutations, verified %d checkpoints; want 3 and 1", rep.Mutations, rep.CheckpointsVerified)
	}
}

// TestVerifyShardedRecording: a recording replays clean at every shard
// count, in the step mode it recorded — the serving mode servers run by
// default, or the paper mode, which replays only if the replaying server
// boots it too. The one-shard server records with span tracing and a
// recorder on and must still replay, uninstrumented, to the same
// digests: observing a solve never changes it.
func TestVerifyShardedRecording(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		traced bool
		paper  bool
	}{
		{"shards=1 traced", 1, true, false},
		{"shards=4", 4, false, false},
		{"shards=1 paper", 1, false, true},
		{"shards=4 paper", 4, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) { testVerifyShardedRecording(t, tc.shards, tc.traced, tc.paper) })
	}
}

func testVerifyShardedRecording(t *testing.T, shards int, traced, paper bool) {
	dir := t.TempDir()
	spec, err := json.Marshal(map[string]any{
		"name": "c2", "source": "a", "sink": "t2", "maxRate": 4.0,
		"utility": map[string]any{"type": "log", "weight": 2.0, "scale": 1.0},
		"edges": []map[string]any{
			{"from": "a", "to": "b", "beta": 1, "cost": 1},
			{"from": "b", "to": "t2", "beta": 1, "cost": 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	jw, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	opts := serverOptions()
	if paper {
		opts = paperOptions()
	}
	opts.Journal = jw
	opts.CheckpointEvery = 2
	opts.Shards = shards
	opts.PlacementSalt = 7
	if traced {
		opts.Recorder = obs.NewRecorder(nil)
		opts.Spans = span.New(256, opts.Recorder)
	}
	s, err := server.New(toyProblem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetMaxRate("c1", 4); err != nil {
		t.Fatal(err)
	}
	waitNext(t, s)
	if _, err := s.AddCommodityJSON(spec); err != nil {
		t.Fatal(err)
	}
	waitNext(t, s)
	if _, err := s.SetCapacity("b", 6); err != nil {
		t.Fatal(err)
	}
	waitNext(t, s)
	if _, err := s.RemoveCommodity("c2"); err != nil {
		t.Fatal(err)
	}
	waitNext(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sp := log.Records[0].Checkpoint.Solver; sp.Serving == paper {
		t.Fatalf("boot checkpoint records serving %v for a server in paper mode %v", sp.Serving, paper)
	}

	rep, err := Verify(dir, Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, m := range rep.Mismatches {
			t.Errorf("mismatch: %s", m)
		}
		t.Fatal("sharded replay diverged from recording")
	}
	if rep.Runs != 1 {
		t.Fatalf("Runs = %d, want 1", rep.Runs)
	}
	if rep.Mutations != 4 {
		t.Fatalf("Mutations = %d, want 4", rep.Mutations)
	}
}

// TestVerifyPinpointsCorruptedDigest corrupts one recorded digest's
// utility and asserts the diff report names exactly that generation.
func TestVerifyPinpointsCorruptedDigest(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, toyProblem(t), func(s *server.Server) {
		if _, err := s.SetMaxRate("c1", 4); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
		if _, err := s.SetMaxRate("c1", 6); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
	})

	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Records
	var corruptGen int64 = -1
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == journal.KindDigest {
			recs[i].Digest.Utility += 1.0
			corruptGen = recs[i].Digest.Generation
			break
		}
	}
	if corruptGen < 0 {
		t.Fatal("recording holds no digests")
	}
	bad := t.TempDir()
	w, err := journal.Create(bad, journal.Options{Fsync: journal.FsyncNever, StreamSHA: log.StreamSHA()})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(bad, Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("corrupted digest verified clean")
	}
	found := false
	for _, m := range rep.Mismatches {
		if m.Field == "utility" {
			found = true
			if m.Generation != corruptGen {
				t.Fatalf("mismatch pinpoints generation %d, corrupted %d", m.Generation, corruptGen)
			}
		}
	}
	if !found {
		t.Fatalf("no utility mismatch reported: %+v", rep.Mismatches)
	}
	// Later generations still verify: only the corrupted one diverges.
	for _, m := range rep.Mismatches {
		if m.Generation != corruptGen {
			t.Fatalf("unexpected mismatch at generation %d: %s", m.Generation, m)
		}
	}
}

// TestVerifyCheckpointDuringSolve reproduces the live interleaving
// where a periodic checkpoint lands (the server's checkpoint goroutine
// writes it after the mutation of its revision) before the digest of a
// solve that captured an earlier revision lands from the solver
// goroutine. The verifier must not let the checkpoint drag the
// replayed state past the solve boundary: the digest still has to
// verify against the revision its solve captured.
func TestVerifyCheckpointDuringSolve(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, toyProblem(t), func(s *server.Server) {
		for _, rate := range []float64{4, 6, 5} {
			if _, err := s.SetMaxRate("c1", rate); err != nil {
				t.Fatal(err)
			}
			waitNext(t, s)
		}
	})

	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Records
	// The recording holds ..., digest(N), mutation(M), ... with N < M,
	// and checkpoint(M) somewhere after mutation(M). Hoist the
	// mutation+checkpoint pair ahead of the digest — a legal
	// interleaving of the live server (the mutation arrived, and
	// checkpointed, while the rev-N solve was still in flight).
	cp, mut := firstCheckpoint(t, recs)
	if mut < 1 || recs[mut-1].Kind != journal.KindDigest || recs[mut-1].Rev >= recs[cp].Rev {
		t.Fatalf("recording shape unexpected around first periodic checkpoint (index %d)", cp)
	}
	reordered := append([]journal.Record(nil), recs[:mut-1]...)
	reordered = append(reordered, recs[mut], recs[cp], recs[mut-1])
	for i := mut + 1; i < len(recs); i++ {
		if i != cp {
			reordered = append(reordered, recs[i])
		}
	}

	rep, err := Verify(copyJournal(t, reordered), Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, m := range rep.Mismatches {
			t.Errorf("mismatch: %s", m)
		}
		t.Fatal("checkpoint journaled mid-solve broke verification")
	}
	if rep.CheckpointsVerified < 1 {
		t.Fatalf("CheckpointsVerified = %d, want >= 1", rep.CheckpointsVerified)
	}
}

// firstCheckpoint returns the index of the first periodic checkpoint in
// recs and of the mutation at its revision.
func firstCheckpoint(t *testing.T, recs []journal.Record) (cp, mut int) {
	t.Helper()
	cp, mut = -1, -1
	for i, r := range recs {
		if r.Kind == journal.KindCheckpoint && !r.Checkpoint.Restart {
			cp = i
			break
		}
	}
	if cp < 0 {
		t.Fatal("recording holds no periodic checkpoint")
	}
	for i, r := range recs {
		if r.Kind == journal.KindMutation && r.Rev == recs[cp].Rev {
			mut = i
		}
	}
	if mut < 0 {
		t.Fatalf("no mutation at the checkpoint's rev %d", recs[cp].Rev)
	}
	return cp, mut
}

// copyJournal writes recs through a fresh writer and returns the
// directory.
func copyJournal(t *testing.T, recs []journal.Record) string {
	t.Helper()
	dir := t.TempDir()
	w, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// lateCheckpointRecording records three rate changes at checkpoint
// cadence 2 and moves the first periodic checkpoint to the end of its
// run, after every later mutation and digest: the latest a background
// checkpoint can land. It returns the records and the checkpoint's
// index among them.
func lateCheckpointRecording(t *testing.T) ([]journal.Record, int) {
	t.Helper()
	dir := t.TempDir()
	record(t, dir, toyProblem(t), func(s *server.Server) {
		for _, rate := range []float64{4, 6, 5} {
			if _, err := s.SetMaxRate("c1", rate); err != nil {
				t.Fatal(err)
			}
			waitNext(t, s)
		}
	})
	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := firstCheckpoint(t, log.Records)
	recs := append([]journal.Record(nil), log.Records[:cp]...)
	recs = append(recs, log.Records[cp+1:]...)
	return append(recs, log.Records[cp]), len(recs)
}

// TestVerifyLateCheckpoint: a checkpoint at rev M that lands after
// mutations M+1… and their digests is still checked against the state
// right after mutation M.
func TestVerifyLateCheckpoint(t *testing.T) {
	recs, _ := lateCheckpointRecording(t)
	rep, err := Verify(copyJournal(t, recs), Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, m := range rep.Mismatches {
			t.Errorf("mismatch: %s", m)
		}
		t.Fatal("late checkpoint broke verification")
	}
	if rep.CheckpointsVerified != 1 {
		t.Fatalf("CheckpointsVerified = %d, want 1", rep.CheckpointsVerified)
	}
}

// TestVerifyFlagsOrphanCheckpoint: a periodic checkpoint whose rev no
// mutation of its run reaches claims a state the run never had; it is
// a structural mismatch, not a silent skip.
func TestVerifyFlagsOrphanCheckpoint(t *testing.T) {
	recs, cp := lateCheckpointRecording(t)
	orphan := recs[cp]
	orphan.Rev = 1000
	recs[cp] = orphan
	rep, err := Verify(copyJournal(t, recs), Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 1 || rep.Mismatches[0].Field != "checkpoint_unverified" || rep.Mismatches[0].Rev != 1000 {
		t.Fatalf("mismatches = %+v, want one checkpoint_unverified at rev 1000", rep.Mismatches)
	}
	if rep.CheckpointsVerified != 0 {
		t.Fatalf("CheckpointsVerified = %d, want 0", rep.CheckpointsVerified)
	}
}

// TestVerifyTailMutations: mutations journaled after the last digest
// of a run (accepted mid-solve, never published before shutdown) must
// still be applied and apply-checked, and counted as the unverified
// tail.
func TestVerifyTailMutations(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, toyProblem(t), func(s *server.Server) {
		if _, err := s.SetMaxRate("c1", 4); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
	})
	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lastRev := int64(0)
	for _, r := range log.Records {
		if r.Rev > lastRev {
			lastRev = r.Rev
		}
	}

	// makeTail rebuilds the journal with extra mutations inserted just
	// before the final digest — the live shape: they were accepted and
	// journaled while the last solve was in flight, so the run ends
	// with a digest whose rev trails them, and no later digest ever
	// covers them.
	lastDigest := -1
	for i, r := range log.Records {
		if r.Kind == journal.KindDigest {
			lastDigest = i
		}
	}
	if lastDigest < 0 {
		t.Fatal("recording holds no digests")
	}
	makeTail := func(muts ...journal.Record) string {
		t.Helper()
		recs := append([]journal.Record(nil), log.Records[:lastDigest]...)
		recs = append(recs, muts...)
		recs = append(recs, log.Records[lastDigest:]...)
		return copyJournal(t, recs)
	}

	good := makeTail(
		journal.Record{Kind: journal.KindMutation, Rev: lastRev + 1, Mutation: &journal.Mutation{
			Op: journal.OpSetRate, Target: "c1", Payload: []byte(`{"rate":7}`)}},
		journal.Record{Kind: journal.KindMutation, Rev: lastRev + 2, Mutation: &journal.Mutation{
			Op: journal.OpSetCapacity, Target: "b", Payload: []byte(`{"capacity":9}`)}},
	)
	rep, err := Verify(good, Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, m := range rep.Mismatches {
			t.Errorf("mismatch: %s", m)
		}
		t.Fatal("tail mutations broke verification")
	}
	if rep.UnverifiedTailMutations != 2 {
		t.Fatalf("UnverifiedTailMutations = %d, want 2", rep.UnverifiedTailMutations)
	}

	// A tail mutation that no longer applies must surface as a
	// mismatch — proof the tail is exercised, not skipped.
	bad := makeTail(journal.Record{Kind: journal.KindMutation, Rev: lastRev + 1,
		Mutation: &journal.Mutation{Op: journal.OpRemoveCommodity, Target: "ghost"}})
	rep, err = Verify(bad, Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("unappliable tail mutation verified clean")
	}
	found := false
	for _, m := range rep.Mismatches {
		if m.Field == "apply" && m.Rev == lastRev+1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no apply mismatch for the tail mutation: %+v", rep.Mismatches)
	}
}

// multiRun records n server lifetimes into one journal directory, each
// booting from the state the journal recovers to and changing c1's
// rate once.
func multiRun(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	p := toyProblem(t)
	for i := 0; i < n; i++ {
		if i > 0 {
			recd, err := journal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			p = recd.Problem
		}
		record(t, dir, p, func(s *server.Server) {
			if _, err := s.SetMaxRate("c1", float64(4+3*i)); err != nil {
				t.Fatal(err)
			}
			waitNext(t, s)
		})
	}
	return dir
}

// TestVerifyMultiRun records three server lifetimes into the same
// journal directory — each later one boots from recovered state — and
// verifies every run replays cleanly.
func TestVerifyMultiRun(t *testing.T) {
	rep, err := Verify(multiRun(t, 3), Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, m := range rep.Mismatches {
			t.Errorf("mismatch: %s", m)
		}
		t.Fatal("multi-run replay diverged")
	}
	if rep.Runs != 3 {
		t.Fatalf("Runs = %d, want 3", rep.Runs)
	}
}

// TestRecordsBeforeTheFirstRestart: records ahead of the first restart
// checkpoint form a leading run. Verify refuses the journal, since that
// run has no boot to replay from; Recover reads only the last run, so it
// recovers what the journal without them does.
func TestRecordsBeforeTheFirstRestart(t *testing.T) {
	dir := multiRun(t, 2)
	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lead := journal.Record{Kind: journal.KindMutation, Rev: 2, Mutation: &journal.Mutation{
		Op: journal.OpSetRate, Target: "c1", Payload: []byte(`{"rate":4}`),
	}}
	headless := copyJournal(t, append([]journal.Record{lead}, log.Records...))

	const want = "journal does not begin with a restart checkpoint (first record: mutation rev 2)"
	if _, err := Verify(headless, Options{Timeout: waitBudget}); err == nil || err.Error() != want {
		t.Fatalf("Verify = %v, want %q", err, want)
	}
	got, err := journal.Recover(headless)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := got.Problem.MarshalJSON()
	cleanJSON, _ := clean.Problem.MarshalJSON()
	if got.Rev != clean.Rev || got.MutationsApplied != clean.MutationsApplied || !bytes.Equal(gotJSON, cleanJSON) {
		t.Fatalf("recovered rev %d (+%d mutations), want rev %d (+%d) and the same problem",
			got.Rev, got.MutationsApplied, clean.Rev, clean.MutationsApplied)
	}
}

// TestVerifyRejectsHeadlessJournal: a journal that does not open with
// a restart checkpoint cannot be replayed.
func TestVerifyRejectsHeadlessJournal(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Append(journal.Record{
		Kind: journal.KindMutation,
		Rev:  2,
		Mutation: &journal.Mutation{
			Op: journal.OpSetRate, Target: "c1",
			Payload: []byte(`{"rate":4}`),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir, Options{}); err == nil {
		t.Fatal("headless journal verified without error")
	}
}

// TestVerifyNamesRetiredJacobiExchange: a multi-shard run recorded under
// the damped Jacobi exchange (its restart checkpoint records a price
// damping) fails with an error naming that exchange, not with a
// mismatch at whichever generation first drifts.
func TestVerifyNamesRetiredJacobiExchange(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	pj, err := toyProblem(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	err = w.Append(journal.Record{
		Kind: journal.KindCheckpoint,
		Rev:  1,
		Checkpoint: &journal.Checkpoint{
			Problem: pj,
			Restart: true,
			Solver: &journal.SolverParams{
				Epsilon: 0.2, Eta: 0.04, MaxIters: 4000, StationaryTol: 1e-3, Serving: true,
				Shards: 4, PlacementSalt: 7, PriceExchangeEvery: 25, PriceDamping: 0.5,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Verify(dir, Options{Timeout: waitBudget})
	if err == nil || !strings.Contains(err.Error(), "damped Jacobi exchange") {
		t.Fatalf("Verify = %v, want an error naming the damped Jacobi exchange", err)
	}
}
