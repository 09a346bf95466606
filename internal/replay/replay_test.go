package replay

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http/httptest"
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
	"repro/internal/server"
	"repro/internal/stream"
)

const waitBudget = 20 * time.Second

// toyProblem parses the repository's toy fixture: servers a → b
// (capacity 10), sinks t1 and t2, and one commodity c1: a→t1 at λ=8,
// with t2 left free for an arrival.
func toyProblem(t *testing.T) *stream.Problem {
	t.Helper()
	data, err := os.ReadFile("../../testdata/toy-problem.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := stream.ParseProblem(data)
	if err != nil {
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

var (
	// serving is what a server on serverOptions() records at boot.
	serving = journal.SolverParams{Epsilon: 0.2, Eta: 0.04, MaxIters: 1500, StationaryTol: 1e-3, Serving: true, Momentum: 0.9}
	// paper is the paper mode at the same budget, which a server takes
	// only from a recorded journal's solver parameters (SolverOptions).
	paper = journal.SolverParams{Epsilon: 0.2, Eta: 0.04, MaxIters: 1500, StationaryTol: 1e-3}

	// c2 arrives at the free sink t2.
	c2 = []byte(`{"name":"c2","source":"a","sink":"t2","maxRate":4,"utility":{"type":"log","weight":2,"scale":1},` +
		`"edges":[{"from":"a","to":"b","beta":1,"cost":1},{"from":"b","to":"t2","beta":1,"cost":1}]}`)
	arrival = []journal.Mutation{journal.SetRate("c1", 4), journal.AddCommodity(c2), journal.SetCapacity("b", 6), journal.RemoveCommodity("c2")}
	rates   = []journal.Mutation{journal.SetRate("c1", 4), journal.SetRate("c1", 6), journal.SetRate("c1", 5)}
	swings  = []journal.Mutation{journal.SetRate("c1", 4), journal.SetRate("c1", 9), journal.SetRate("c1", 6), journal.SetCapacity("b", 6)}

	// restart is a step of record that closes the server and boots the
	// next from what the journal recovers.
	restart = journal.Mutation{Op: "restart"}
)

// patch is a step of record that sends body as a PATCH of c1 through
// the HTTP handler, which commits its fields as one group.
func patch(body string) journal.Mutation {
	return journal.Mutation{Op: "PATCH", Target: "c1", Payload: []byte(body)}
}

// record runs journaled server lifetimes in dir at checkpoint cadence 2
// and returns dir. A lifetime boots from what the journal in dir
// recovers, or from the toy problem when dir holds none, and waits for
// its boot solve; each step then goes through Server.Apply (or the
// handler, for patch) and waits for the snapshot that answers it, up
// to a restart or the last step.
func record(t *testing.T, dir string, opts server.Options, steps ...journal.Mutation) string {
	t.Helper()
	p := toyProblem(t)
	if has, err := journal.HasJournal(dir); err != nil {
		t.Fatal(err)
	} else if has {
		recd, err := journal.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		p = recd.Problem
	}
	jw, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal, opts.CheckpointEvery = jw, 2
	s, err := server.New(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	for ; len(steps) > 0 && steps[0].Op != restart.Op; steps = steps[1:] {
		if m := steps[0]; m.Op == "PATCH" {
			w := httptest.NewRecorder()
			s.Handler(nil).ServeHTTP(w, httptest.NewRequest("PATCH", "/v1/commodities/"+m.Target, bytes.NewReader(m.Payload)))
			if w.Code != 200 {
				t.Fatalf("PATCH = %d: %s", w.Code, w.Body)
			}
		} else if _, err := s.Apply(m); err != nil {
			t.Fatal(err)
		}
		waitNext(t, s)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(steps) > 0 {
		return record(t, dir, opts, steps[1:]...)
	}
	return dir
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

// rewrite writes recs through a fresh writer and returns the directory.
func rewrite(t *testing.T, recs []journal.Record) string {
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

// A recording is one row of the recordings table: record's steps on a
// server with the row's solver, the recorded journal optionally edited
// and rewritten, then Verify.
type recording struct {
	name   string                // subtest name; "" runs a test's one row as the test
	solver *journal.SolverParams // the server's solver, via SolverOptions; nil is serverOptions()
	shards int                   // the shard count, at placement salt 7; 0 sets neither
	traced bool                  // record with a recorder and span tracing on
	steps  []journal.Mutation
	// edit rewrites the recording and returns the mismatches Verify must
	// report then, by field, generation and revision; nil wants none.
	edit func(t *testing.T, recs []journal.Record) ([]journal.Record, []Mismatch)
	want Report // Verify's counts
}

// recordings holds each recording test's rows by test name. Every row
// also wants, in every run, a restart checkpoint recording the server's
// solver (a "momentum" member exactly when it has momentum), and
// replays with no mismatch but those its edit names.
var recordings = map[string][]recording{
	"TestVerifyCleanRecording": {{
		steps: []journal.Mutation{journal.SetRate("c1", 4), journal.AddCommodity(c2), journal.SetCapacity("b", 6),
			journal.SetRates(map[string]float64{"c1": 5, "c2": 3}), journal.RemoveCommodity("c2")},
		want: Report{Runs: 1, Mutations: 5, Digests: 6, CheckpointsVerified: 2},
	}},
	// A serving run records its heavy-ball μ on the restart checkpoint.
	// One recorded without it — every serving journal from before the
	// step had momentum — boots a server without momentum
	// (server.SolverOptions), so both replay bitwise.
	"TestVerifyMomentumRecordings": {
		{name: "mu=0", solver: &journal.SolverParams{Epsilon: 0.2, Eta: 0.04, MaxIters: 1500, StationaryTol: 1e-3, Serving: true},
			steps: swings, want: Report{Runs: 1, Mutations: 4, Digests: 5, CheckpointsVerified: 2}},
		{name: "mu=0.9", steps: swings, want: Report{Runs: 1, Mutations: 4, Digests: 5, CheckpointsVerified: 2}},
	},
	// A PATCH that sets rate and utility commits as one group but
	// journals one record per revision, and the periodic checkpoint that
	// falls due inside the group (the rate is the second journaled
	// mutation) is written at the group's last revision — the only one
	// whose state the server holds — and verifies. The group's own
	// solve publishes utility +Inf (the log utility has scale 0), which
	// the journal cannot encode, so its digest is missing and the group
	// replays as the unverified tail.
	"TestVerifyTwoFieldPatch": {{
		steps: []journal.Mutation{journal.SetRate("c1", 6), patch(`{"maxRate":4,"utility":{"type":"log","weight":2}}`)},
		want:  Report{Runs: 1, Mutations: 3, Digests: 2, CheckpointsVerified: 1, UnverifiedTailMutations: 2},
	}},
	// A recording replays clean at every shard count, in the step mode it
	// recorded — the serving mode servers run by default, or the paper
	// mode, which replays only if the replaying server boots it too. The
	// traced server records with span tracing and a recorder on and still
	// replays, uninstrumented, to the same digests: observing a solve
	// never changes it.
	"TestVerifyShardedRecording": {
		{name: "shards=1 traced", shards: 1, traced: true, steps: arrival, want: Report{Runs: 1, Mutations: 4, Digests: 5, CheckpointsVerified: 2}},
		{name: "shards=4", shards: 4, steps: arrival, want: Report{Runs: 1, Mutations: 4, Digests: 5, CheckpointsVerified: 2}},
		{name: "shards=1 paper", shards: 1, solver: &paper, steps: arrival, want: Report{Runs: 1, Mutations: 4, Digests: 5, CheckpointsVerified: 2}},
		{name: "shards=4 paper", shards: 4, solver: &paper, steps: arrival, want: Report{Runs: 1, Mutations: 4, Digests: 5, CheckpointsVerified: 2}},
	},
	// One row per field compareDigest checks: corrupting it in the last
	// digest is reported on that field at that generation, and nowhere
	// else.
	"TestVerifyPinpointsCorruptedDigest": corruptions(map[string]func(r *journal.Record){
		"rev":           func(r *journal.Record) { r.Rev++ }, // past the last mutation
		"utility":       func(r *journal.Record) { r.Digest.Utility++ },
		"admitted_hash": func(r *journal.Record) { r.Digest.AdmittedHash = "corrupt" },
		"commodities":   func(r *journal.Record) { r.Digest.Commodities++ },
		"warm":          func(r *journal.Record) { r.Digest.Warm = !r.Digest.Warm },
		"iterations":    func(r *journal.Record) { r.Digest.Iterations++ },
		"converged":     func(r *journal.Record) { r.Digest.Converged = !r.Digest.Converged },
		"feasible":      func(r *journal.Record) { r.Digest.Feasible = !r.Digest.Feasible },
		"flips":         func(r *journal.Record) { r.Digest.Flips = append(r.Digest.Flips, journal.Flip{Commodity: "c1"}) },
	}),
	"TestVerifyCheckpointDuringSolve": {{steps: rates, edit: hoistCheckpoint,
		want: Report{Runs: 1, Mutations: 3, Digests: 4, CheckpointsVerified: 1}}},
	// A checkpoint at rev M that lands after mutations M+1… and their
	// digests is still checked against the state right after mutation M.
	"TestVerifyLateCheckpoint": {{steps: rates, edit: lateCheckpoint(0),
		want: Report{Runs: 1, Mutations: 3, Digests: 4, CheckpointsVerified: 1}}},
	// A periodic checkpoint whose rev no mutation of its run reaches
	// claims a state the run never had: a structural mismatch, not a
	// silent skip.
	"TestVerifyFlagsOrphanCheckpoint": {{steps: rates, edit: lateCheckpoint(1000),
		want: Report{Runs: 1, Mutations: 3, Digests: 4}}},
	// Mutations journaled after the last digest of a run (accepted
	// mid-solve, never published before shutdown) are still applied and
	// apply-checked, and counted as the unverified tail; one that no
	// longer applies is a mismatch — proof the tail is exercised, not
	// skipped.
	"TestVerifyTailMutations": {
		{name: "applies", steps: rates[:1], edit: tail(false, journal.SetRate("c1", 7), journal.SetCapacity("b", 9)),
			want: Report{Runs: 1, Mutations: 3, Digests: 2, UnverifiedTailMutations: 2}},
		{name: "unappliable", steps: rates[:1], edit: tail(true, journal.RemoveCommodity("ghost")),
			want: Report{Runs: 1, Mutations: 1, Digests: 2}},
	},
	// Three server lifetimes in one journal directory, each later one
	// booted from recovered state, replay as three clean runs.
	"TestVerifyMultiRun": {{
		steps: []journal.Mutation{journal.SetRate("c1", 4), restart, journal.SetRate("c1", 7), restart, journal.SetRate("c1", 10)},
		want:  Report{Runs: 3, Mutations: 3, Digests: 6},
	}},
}

func TestVerifyCleanRecording(t *testing.T)           { verifyRecordings(t) }
func TestVerifyMomentumRecordings(t *testing.T)       { verifyRecordings(t) }
func TestVerifyTwoFieldPatch(t *testing.T)            { verifyRecordings(t) }
func TestVerifyShardedRecording(t *testing.T)         { verifyRecordings(t) }
func TestVerifyPinpointsCorruptedDigest(t *testing.T) { verifyRecordings(t) }
func TestVerifyCheckpointDuringSolve(t *testing.T)    { verifyRecordings(t) }
func TestVerifyLateCheckpoint(t *testing.T)           { verifyRecordings(t) }
func TestVerifyFlagsOrphanCheckpoint(t *testing.T)    { verifyRecordings(t) }
func TestVerifyTailMutations(t *testing.T)            { verifyRecordings(t) }
func TestVerifyMultiRun(t *testing.T)                 { verifyRecordings(t) }

// verifyRecordings runs the recordings table's rows for the calling
// test.
func verifyRecordings(t *testing.T) {
	rows := recordings[t.Name()]
	if len(rows) == 0 {
		t.Fatal("no recordings for this test")
	}
	for _, rc := range rows {
		run(t, rc.name, rc.verify)
	}
}

// run runs f as t itself for a test's one unnamed row, else as the
// subtest name.
func run(t *testing.T, name string, f func(*testing.T)) {
	if name == "" {
		f(t)
	} else {
		t.Run(name, f)
	}
}

func (rc recording) verify(t *testing.T) {
	opts, boot := serverOptions(), serving
	if rc.solver != nil {
		opts, boot = server.SolverOptions(rc.solver), *rc.solver
		opts.Debounce, opts.Logf = 2*time.Millisecond, func(string, ...any) {}
	}
	if rc.shards > 0 {
		opts.Shards, opts.PlacementSalt = rc.shards, 7
		boot.Shards, boot.PlacementSalt = rc.shards, 7
	}
	if rc.traced {
		opts.Recorder = obs.NewRecorder(nil)
		opts.Spans = span.New(256, opts.Recorder)
	}
	dir := record(t, t.TempDir(), opts, rc.steps...)

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != rc.want.Runs {
		t.Fatalf("segments %v, %v; want one per run", segs, err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Contains(raw, []byte(`"momentum":`)); got != (boot.Momentum > 0) {
			t.Fatalf("%s has a momentum field: %v, want %v", seg, got, boot.Momentum > 0)
		}
	}
	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range log.Runs() {
		if cp := r[0].Checkpoint; cp == nil || !cp.Restart || cp.Solver == nil || *cp.Solver != boot {
			t.Fatalf("run opens with %+v, want a restart checkpoint of %+v", r[0], boot)
		}
	}

	var want []Mismatch
	if rc.edit != nil {
		var recs []journal.Record
		recs, want = rc.edit(t, log.Records)
		dir = rewrite(t, recs)
	}
	rep, err := Verify(dir, Options{Timeout: waitBudget})
	if err != nil {
		t.Fatal(err)
	}
	var got []Mismatch
	for _, m := range rep.Mismatches {
		m.Recorded, m.Replayed = "", ""
		got = append(got, m)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mismatches %v, want %v", rep.Mismatches, want)
	}
	counts := *rep
	counts.Dir, counts.StreamSHA, counts.Mismatches, counts.Seconds = "", "", nil, 0
	if !reflect.DeepEqual(counts, rc.want) {
		t.Errorf("report %+v, want %+v", counts, rc.want)
	}
}

// corruptions is one row per field: each records two rate changes and
// corrupts the last digest with the field's edit.
func corruptions(edits map[string]func(r *journal.Record)) []recording {
	var rows []recording
	for field, f := range edits {
		rows = append(rows, recording{name: field, steps: rates[:2],
			edit: func(t *testing.T, recs []journal.Record) ([]journal.Record, []Mismatch) {
				i := lastDigest(t, recs)
				f(&recs[i])
				return recs, []Mismatch{{Generation: recs[i].Digest.Generation, Rev: recs[i].Rev, Field: field}}
			},
			want: Report{Runs: 1, Mutations: 2, Digests: 3, CheckpointsVerified: 1}})
	}
	return rows
}

// hoistCheckpoint reproduces the live interleaving where a periodic
// checkpoint lands (the server's checkpoint goroutine writes it after
// the mutation of its revision) before the digest of a solve that
// captured an earlier revision: the recording holds …, digest(N),
// mutation(M), … with N < M, and checkpoint(M) somewhere after
// mutation(M), and the mutation+checkpoint pair moves ahead of the
// digest. The checkpoint must not drag the replayed state past the
// solve boundary: the digest still verifies against its own revision.
func hoistCheckpoint(t *testing.T, recs []journal.Record) ([]journal.Record, []Mismatch) {
	cp, mut := firstCheckpoint(t, recs)
	if mut < 1 || recs[mut-1].Kind != journal.KindDigest || recs[mut-1].Rev >= recs[cp].Rev {
		t.Fatalf("recording shape unexpected around first periodic checkpoint (index %d)", cp)
	}
	out := append([]journal.Record(nil), recs[:mut-1]...)
	out = append(out, recs[mut], recs[cp], recs[mut-1])
	for i := mut + 1; i < len(recs); i++ {
		if i != cp {
			out = append(out, recs[i])
		}
	}
	return out, nil
}

// lateCheckpoint moves the first periodic checkpoint to the end of its
// run, after every later mutation and digest: the latest a background
// checkpoint can land. A non-zero rev relabels it with a revision no
// mutation reaches, which Verify must flag.
func lateCheckpoint(rev int64) func(*testing.T, []journal.Record) ([]journal.Record, []Mismatch) {
	return func(t *testing.T, recs []journal.Record) ([]journal.Record, []Mismatch) {
		cp, _ := firstCheckpoint(t, recs)
		late := recs[cp]
		out := append(append([]journal.Record(nil), recs[:cp]...), recs[cp+1:]...)
		if rev == 0 {
			return append(out, late), nil
		}
		late.Rev = rev
		return append(out, late), []Mismatch{{Rev: rev, Field: "checkpoint_unverified"}}
	}
}

// tail inserts ms at the next revisions just before the last digest —
// the live shape: accepted and journaled while the last solve was in
// flight, so the run ends with a digest whose rev trails them. When
// unappliable, Verify must report the first at its revision.
func tail(unappliable bool, ms ...journal.Mutation) func(*testing.T, []journal.Record) ([]journal.Record, []Mismatch) {
	return func(t *testing.T, recs []journal.Record) ([]journal.Record, []Mismatch) {
		last := lastDigest(t, recs)
		rev := int64(0)
		for _, r := range recs {
			rev = max(rev, r.Rev)
		}
		out := append([]journal.Record(nil), recs[:last]...)
		for i := range ms {
			m := ms[i]
			if err := m.Encode(); err != nil {
				t.Fatal(err)
			}
			out = append(out, journal.Record{Kind: journal.KindMutation, Rev: rev + 1 + int64(i), Mutation: &m})
		}
		out = append(out, recs[last:]...)
		if unappliable {
			return out, []Mismatch{{Rev: rev + 1, Field: "apply"}}
		}
		return out, nil
	}
}

// lastDigest returns the index of the last digest in recs.
func lastDigest(t *testing.T, recs []journal.Record) int {
	t.Helper()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == journal.KindDigest {
			return i
		}
	}
	t.Fatal("recording holds no digests")
	return -1
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

// checkedIn holds the checked-in recordings by test name, each as
// recorded or with a member added to its restart checkpoints' solver
// parameters. They were recorded on amd64 by `cmd/loadgen -scenario
// examples/scenarios/churn.json -run -journal`, one shard, and replay
// bit for bit: 30 mutations and 25 digests.
//   - churn-parent: the last commit whose server wrote each op's payload
//     by hand (arrivals, departures, rate batches and scale_capacity
//     faults). Every mutation now goes through Server.Apply and
//     journal.Apply; neither the record format nor the trajectory may
//     move.
//   - churn-serving-parent: the default serving step at the last commit
//     before the sweep carried ρ down a chain and the wave called Linear
//     utilities on their concrete type (its boot checkpoint reads
//     "serving":true). churn-parent is paper mode, so this is the
//     checked-in trajectory that pins the serving step — backtracking,
//     heavy ball, rate-space warm starts — across kernel changes. Its
//     copy recording "workers":4, as every journal of a daemon run with
//     the retired -workers 4 does, must recover to the same state and
//     replay just as clean.
var checkedIn = map[string][]struct{ name, dir, key string }{
	"TestVerifyJournalFromBeforeServerApply": {{"", "testdata/churn-parent", ""}},
	"TestVerifyServingJournalFromBeforeCarriedRho": {
		{"as-recorded", "testdata/churn-serving-parent", ""},
		{"workers=4", "testdata/churn-serving-parent", `"workers":4`},
	},
}

func TestVerifyJournalFromBeforeServerApply(t *testing.T)       { verifyCheckedIn(t) }
func TestVerifyServingJournalFromBeforeCarriedRho(t *testing.T) { verifyCheckedIn(t) }

func verifyCheckedIn(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Digests compare floats bit for bit, and compilers for other
		// architectures may fuse the solver's multiply-adds.
		t.Skip("journal was recorded on amd64")
	}
	for _, j := range checkedIn[t.Name()] {
		run(t, j.name, func(t *testing.T) {
			dir := j.dir
			if j.key != "" {
				dir = withSolverKey(t, j.dir, j.key)
			}
			want, err := journal.Recover(j.dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := journal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if *got.Solver != *want.Solver || got.Rev != want.Rev {
				t.Fatalf("recovered solver %+v at rev %d, recording %+v at rev %d", *got.Solver, got.Rev, *want.Solver, want.Rev)
			}
			rep, err := Verify(dir, Options{Timeout: waitBudget})
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

// TestRecordsBeforeTheFirstRestart: records ahead of the first restart
// checkpoint form a leading run. Verify refuses the journal, since that
// run has no boot to replay from; Recover reads only the last run, so it
// recovers what the journal without them does.
func TestRecordsBeforeTheFirstRestart(t *testing.T) {
	dir := record(t, t.TempDir(), serverOptions(), journal.SetRate("c1", 4), restart, journal.SetRate("c1", 7))
	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lead := journal.Record{Kind: journal.KindMutation, Rev: 2, Mutation: &journal.Mutation{
		Op: journal.OpSetRate, Target: "c1", Payload: []byte(`{"rate":4}`),
	}}
	headless := rewrite(t, append([]journal.Record{lead}, log.Records...))

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
	dir := rewrite(t, []journal.Record{{Kind: journal.KindMutation, Rev: 2, Mutation: &journal.Mutation{
		Op: journal.OpSetRate, Target: "c1", Payload: []byte(`{"rate":4}`),
	}}})
	if _, err := Verify(dir, Options{}); err == nil {
		t.Fatal("headless journal verified without error")
	}
}

// TestVerifyNamesRetiredJacobiExchange: a multi-shard run recorded under
// the damped Jacobi exchange (its restart checkpoint records a price
// damping) fails with an error naming that exchange, not with a
// mismatch at whichever generation first drifts.
func TestVerifyNamesRetiredJacobiExchange(t *testing.T) {
	pj, err := toyProblem(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := rewrite(t, []journal.Record{{Kind: journal.KindCheckpoint, Rev: 1, Checkpoint: &journal.Checkpoint{
		Problem: pj,
		Restart: true,
		Solver: &journal.SolverParams{
			Epsilon: 0.2, Eta: 0.04, MaxIters: 4000, StationaryTol: 1e-3, Serving: true,
			Shards: 4, PlacementSalt: 7, PriceExchangeEvery: 25, PriceDamping: 0.5,
		},
	}}})
	_, err = Verify(dir, Options{Timeout: waitBudget})
	if err == nil || !strings.Contains(err.Error(), "damped Jacobi exchange") {
		t.Fatalf("Verify = %v, want an error naming the damped Jacobi exchange", err)
	}
}
