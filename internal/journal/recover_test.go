package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stream"
)

// restart, periodic and mut sketch the records of a journal for build
// to complete.
func restart(rev int64, sp *SolverParams) Record {
	return Record{Kind: KindCheckpoint, Rev: rev, Checkpoint: &Checkpoint{Restart: true, Solver: sp}}
}

func periodic(rev int64) Record {
	return Record{Kind: KindCheckpoint, Rev: rev, Checkpoint: &Checkpoint{}}
}

func mut(m Mutation) Record { return Record{Kind: KindMutation, Mutation: &m} }

// build completes a journal sketch over the toy problem. A restart
// checkpoint records the problem as it stands — the toy problem, or
// where the previous run left it — and revisions restart at its own;
// each mutation takes the next revision and applies; a periodic
// checkpoint records the problem as it stood right after the mutation
// of its revision in its run.
func build(t *testing.T, sketch ...Record) []Record {
	t.Helper()
	p := toyProblem(t)
	var rev int64
	at := map[int64]json.RawMessage{}
	recs := make([]Record, len(sketch))
	for i, r := range sketch {
		if r.Kind == KindMutation {
			m := *r.Mutation
			if err := m.Encode(); err != nil {
				t.Fatal(err)
			}
			if err := Apply(p, &m); err != nil {
				t.Fatal(err)
			}
			rev++
			r.Rev, r.Mutation = rev, &m
			at[rev] = mustJSON(t, p)
		} else {
			if r.Checkpoint.Restart {
				rev = r.Rev
				at = map[int64]json.RawMessage{rev: mustJSON(t, p)}
			}
			cp := *r.Checkpoint
			if cp.Problem = at[r.Rev]; cp.Problem == nil {
				t.Fatalf("sketch checkpoints rev %d, which its run does not reach", r.Rev)
			}
			r.Checkpoint = &cp
		}
		recs[i] = r
	}
	return recs
}

// write writes recs through a fresh writer and returns the directory.
func write(t *testing.T, recs []Record) string {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, Options{Fsync: FsyncNever})
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

var (
	// lateRun is one server run the way the background checkpoint writer
	// can leave it: six mutations after a boot at rev 1, and the periodic
	// checkpoint at rev 4 landing after the mutations at revs 5 and 6.
	// The mutations mix absolute and relative writes, so a recovery that
	// skips or repeats one shows in the problem's bytes.
	lateRun = []Record{restart(1, nil),
		mut(SetRate("c1", 3)), mut(ScaleCapacity("a", 0.5)), mut(SetCapacity("b", 7)),
		mut(ScaleBandwidth("a", "b", 0.5)), mut(SetRate("c1", 5)), periodic(4), mut(ScaleCapacity("b", 0.5))}
	// twoRuns is two runs of lateRun: the second boots from the first's
	// final state, with revisions restarting at 1. The first run ends
	// with a periodic checkpoint at rev 7, above every revision the
	// second run reaches.
	twoRuns = append(append(lateRun[:len(lateRun):len(lateRun)], periodic(7)), lateRun...)

	sharded = &SolverParams{Epsilon: 0.2, Eta: 0.04, MaxIters: 100, Shards: 4, PlacementSalt: 7, PriceExchangeEvery: 25, PriceDamping: 0.5}
)

// recoveries holds, by test name, a journal sketch and what Recover
// must make of it, or the error it fails with: the checkpoint it starts from, the
// revision and mutation count it reaches, c1's rate, b's capacity and
// the solver parameters of the newest run's restart checkpoint. The
// problem must always equal rollForward's.
var recoveries = map[string]struct {
	sketch     []Record
	cpRev, rev int64
	applied    int
	rate, capB float64
	solver     *SolverParams
	err        string // a failing row's error names this
}{
	"TestRecoverRollsForward": {sketch: []Record{restart(1, nil), mut(SetRate("c1", 3)), mut(SetCapacity("b", 7))},
		cpRev: 1, rev: 3, applied: 2, rate: 3, capB: 7},
	// A restart checkpoint carrying shard topology, then a plain one
	// without: recovery starts from the plain one and still surfaces the
	// topology, so a rebooting daemon can adopt it.
	"TestRecoverSurfacesSolverParams": {sketch: []Record{restart(1, sharded), mut(SetCapacity("b", 7)), periodic(2)},
		cpRev: 2, rev: 2, rate: 8, capB: 7, solver: sharded},
	// Of two checkpoints, recovery rolls forward from the newest only.
	"TestRecoverPrefersLastCheckpoint": {sketch: []Record{restart(1, nil), mut(SetRate("c1", 2)), periodic(2), mut(SetRate("c1", 9))},
		cpRev: 2, rev: 3, applied: 1, rate: 9, capB: 10},
	"TestRecoverRequiresCheckpoint": {sketch: []Record{mut(SetRate("c1", 3))}, err: "no checkpoint"},
	// The checkpoint at rev 4 lands after the mutations at revs 5 and 6.
	// Recovery starts from it and still applies them, then rev 7.
	"TestRecoverLateCheckpoint": {sketch: lateRun, cpRev: 4, rev: 7, applied: 3, rate: 5, capB: 3.5},
	// Revisions restart with each run, so the first run's checkpoint at
	// rev 7 outranks every checkpoint of the second by revision, yet it
	// must not govern the second run.
	"TestRecoverIgnoresEarlierRunsCheckpoints": {sketch: twoRuns, cpRev: 4, rev: 7, applied: 3, rate: 5, capB: 3.5},
}

func TestRecoverRollsForward(t *testing.T)                  { checkRecovery(t) }
func TestRecoverSurfacesSolverParams(t *testing.T)          { checkRecovery(t) }
func TestRecoverPrefersLastCheckpoint(t *testing.T)         { checkRecovery(t) }
func TestRecoverRequiresCheckpoint(t *testing.T)            { checkRecovery(t) }
func TestRecoverLateCheckpoint(t *testing.T)                { checkRecovery(t) }
func TestRecoverIgnoresEarlierRunsCheckpoints(t *testing.T) { checkRecovery(t) }

// checkRecovery recovers the calling test's row of recoveries.
func checkRecovery(t *testing.T) {
	row, ok := recoveries[t.Name()]
	if !ok {
		t.Fatal("no recovery row for this test")
	}
	recs := build(t, row.sketch...)
	rec, err := Recover(write(t, recs))
	if row.err != "" {
		if err == nil || !strings.Contains(err.Error(), row.err) {
			t.Fatalf("Recover = %v, want an error naming %q", err, row.err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointRev != row.cpRev || rec.Rev != row.rev || rec.MutationsApplied != row.applied {
		t.Fatalf("recovered cpRev=%d rev=%d applied=%d, want %d, %d, %d",
			rec.CheckpointRev, rec.Rev, rec.MutationsApplied, row.cpRev, row.rev, row.applied)
	}
	c, ok := rec.Problem.CommodityByName("c1")
	b, _ := rec.Problem.Net.NodeByName("b")
	if !ok || c.MaxRate != row.rate || rec.Problem.Net.Capacity[b] != row.capB {
		t.Fatalf("recovered c1 %+v, capacity(b) %v; want rate %v, capacity %v", c, rec.Problem.Net.Capacity[b], row.rate, row.capB)
	}
	if !reflect.DeepEqual(rec.Solver, row.solver) {
		t.Fatalf("recovered solver params %+v, want %+v", rec.Solver, row.solver)
	}
	if got, want := mustJSON(t, rec.Problem), rollForward(t, recs); string(got) != string(want) {
		t.Fatalf("recovered problem\n%s\nwant\n%s", got, want)
	}
}

// appendGarbage simulates a crash mid-append: a partial frame at the
// tail of the named segment.
func appendGarbage(t *testing.T, dir string, seg int, garbage []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, SegmentName(seg)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTolerated(t *testing.T) {
	// Three torn-tail shapes: partial frame header, partial payload
	// after a plausible length, and a full frame with a corrupted CRC.
	full, err := encodeFrame(&Record{Kind: KindMutation, Rev: 99, WallUnixNano: 1, MonoNanos: 1,
		Mutation: &Mutation{Op: OpRemoveCommodity, Target: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), full...)
	corrupted[5] ^= 0xff // flip a CRC byte
	cases := map[string][]byte{
		"partial header":  {0x01, 0x02, 0x03},
		"partial payload": full[:len(full)-3],
		"crc mismatch":    corrupted,
	}
	for name, garbage := range cases {
		t.Run(name, func(t *testing.T) {
			dir := write(t, build(t, restart(1, nil), mut(SetRate("c1", 3))))
			appendGarbage(t, dir, 0, garbage)
			log, err := ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !log.Truncated {
				t.Fatal("torn tail not reported")
			}
			if len(log.Records) != 2 {
				t.Fatalf("got %d records before the tear, want 2", len(log.Records))
			}
			rec, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := rec.Problem.CommodityByName("c1")
			if c.MaxRate != 3 {
				t.Fatalf("recovered MaxRate = %v", c.MaxRate)
			}
		})
	}
}

// TestMidJournalCorruptionFails: a torn frame at the tail of a segment
// whose successor was written by the SAME writer cannot be a crash
// artifact — the writer syncs a segment before rotating — so the read
// must fail instead of silently dropping records.
func TestMidJournalCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SegmentBytes: 600, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p := toyProblem(t)
	pj, _ := json.Marshal(p)
	if err := w.Append(Record{Kind: KindCheckpoint, Rev: 1, Checkpoint: &Checkpoint{Problem: pj, Restart: true}}); err != nil {
		t.Fatal(err)
	}
	rev := int64(1)
	for w.Segment() == 0 {
		rev++
		if err := w.Append(Record{Kind: KindMutation, Rev: rev, Mutation: &Mutation{
			Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 3})}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear segment 0: segment 1 carries the same JournalID, so this is
	// corruption, not a crash+restart boundary.
	appendGarbage(t, dir, 0, []byte{0xde, 0xad})
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("mid-journal corruption accepted")
	}
}

// TestCrashRestartCrashRecovers is the double-crash cycle: a crash
// tears the journal tail, recovery appends a fresh segment over the
// tear without truncating it, and a second crash tears the new tail.
// Every restart must keep reading the full history — the tear healed
// by a new-writer segment is a tolerated crash scar, not corruption.
func TestCrashRestartCrashRecovers(t *testing.T) {
	dir := write(t, build(t, restart(1, nil), mut(SetRate("c1", 3))))
	rate := 3.0
	for crash := 0; crash < 3; crash++ {
		appendGarbage(t, dir, crash, []byte{0x01, 0x02, 0x03}) // SIGKILL mid-append
		rec, err := Recover(dir)
		if err != nil {
			t.Fatalf("recovery after crash %d: %v", crash+1, err)
		}
		c, ok := rec.Problem.CommodityByName("c1")
		if !ok || c.MaxRate != rate {
			t.Fatalf("after crash %d: recovered MaxRate = %v, want %v", crash+1, c.MaxRate, rate)
		}
		// Restart: a fresh writer appends a boot checkpoint and another
		// mutation to a new segment over the untruncated tear.
		w, err := Create(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(rec.Problem)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(Record{Kind: KindCheckpoint, Rev: rec.Rev, Checkpoint: &Checkpoint{Problem: pj, Restart: true}}); err != nil {
			t.Fatal(err)
		}
		rate++
		if err := w.Append(Record{Kind: KindMutation, Rev: rec.Rev + 1, Mutation: &Mutation{
			Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: rate})}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	log, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.TornSegments) != 3 {
		t.Fatalf("TornSegments = %v, want the three crash scars", log.TornSegments)
	}
	if log.Truncated {
		t.Fatal("intact tail reported truncated")
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := rec.Problem.CommodityByName("c1")
	if c.MaxRate != rate {
		t.Fatalf("final recovered MaxRate = %v, want %v", c.MaxRate, rate)
	}
}

// TestBootCrashEmptySegmentTolerated: a crash between segment creation
// and the first header flush leaves an empty .wal file. Trailing empty
// segments are dropped as truncation; a mid-journal empty segment (a
// crash-looped boot before a successful one) is skipped.
func TestBootCrashEmptySegmentTolerated(t *testing.T) {
	dir := write(t, build(t, restart(1, nil), mut(SetRate("c1", 3))))
	// Boot crash: segment 1 exists but holds nothing durable.
	if err := os.WriteFile(filepath.Join(dir, SegmentName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated || len(log.Records) != 2 {
		t.Fatalf("trailing empty segment: Truncated=%v records=%d", log.Truncated, len(log.Records))
	}
	// The next boot succeeds and appends segment 2 around the empty one.
	w, err := Create(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p := toyProblem(t)
	pj, _ := json.Marshal(p)
	if err := w.Append(Record{Kind: KindCheckpoint, Rev: 3, Checkpoint: &Checkpoint{Problem: pj, Restart: true}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err = ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated || len(log.Records) != 3 {
		t.Fatalf("mid-journal empty segment: Truncated=%v records=%d", log.Truncated, len(log.Records))
	}
	if _, err := Recover(dir); err != nil {
		t.Fatal(err)
	}
}

// TestRotationBoundaryRecovery crashes (torn tail) right after a
// rotation and recovers across the segment boundary.
func TestRotationBoundaryRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SegmentBytes: 600, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p := toyProblem(t)
	pj, _ := json.Marshal(p)
	if err := w.Append(Record{Kind: KindCheckpoint, Rev: 1, Checkpoint: &Checkpoint{Problem: pj, Restart: true}}); err != nil {
		t.Fatal(err)
	}
	var lastRev int64 = 1
	for w.Segment() == 0 {
		lastRev++
		if err := w.Append(Record{Kind: KindMutation, Rev: lastRev, Mutation: &Mutation{
			Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: float64(lastRev)})}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appendGarbage(t, dir, w.Segment(), []byte{0x42})

	log, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !log.Truncated {
		t.Fatal("torn tail after rotation not reported")
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Rev != lastRev {
		t.Fatalf("recovered rev %d, want %d", rec.Rev, lastRev)
	}
	c, _ := rec.Problem.CommodityByName("c1")
	if c.MaxRate != float64(lastRev) {
		t.Fatalf("recovered MaxRate = %v, want %d", c.MaxRate, lastRev)
	}
}

func TestHasJournal(t *testing.T) {
	dir := t.TempDir()
	ok, err := HasJournal(dir)
	if err != nil || ok {
		t.Fatalf("empty dir: HasJournal = %v, %v", ok, err)
	}
	ok, err = HasJournal(filepath.Join(dir, "missing"))
	if err != nil || ok {
		t.Fatalf("missing dir: HasJournal = %v, %v", ok, err)
	}
	w, err := Create(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ok, err = HasJournal(dir)
	if err != nil || !ok {
		t.Fatalf("after Create: HasJournal = %v, %v", ok, err)
	}
}

// rollForward is what recovery of recs must yield: the newest run's
// restart checkpoint with that run's mutations applied in order, no
// periodic checkpoint consulted. It returns the canonical JSON.
func rollForward(t *testing.T, recs []Record) []byte {
	t.Helper()
	var p *stream.Problem
	for _, r := range recs {
		switch {
		case r.Kind == KindCheckpoint && r.Checkpoint.Restart:
			var err error
			if p, err = stream.ParseProblem(r.Checkpoint.Problem); err != nil {
				t.Fatal(err)
			}
		case r.Kind == KindMutation:
			if err := Apply(p, r.Mutation); err != nil {
				t.Fatal(err)
			}
		}
	}
	return mustJSON(t, p)
}

// TestRecoverEveryPrefix cuts the two-run journal after every record —
// what a crash can leave — and checks that recovery always equals the
// newest run's boot checkpoint rolled forward through that prefix's
// mutations alone.
func TestRecoverEveryPrefix(t *testing.T) {
	recs := build(t, twoRuns...)
	for n := 1; n <= len(recs); n++ {
		rec, err := Recover(write(t, recs[:n]))
		if err != nil {
			t.Fatalf("cut after record %d: %v", n, err)
		}
		if got, want := mustJSON(t, rec.Problem), rollForward(t, recs[:n]); string(got) != string(want) {
			t.Fatalf("cut after record %d (%s rev %d): recovered\n%s\nwant\n%s", n, recs[n-1].Kind, recs[n-1].Rev, got, want)
		}
	}
}

// TestRunsSplitAtRestartCheckpoints: records before the first restart
// checkpoint form a leading run that does not open with one, each
// restart checkpoint opens the next run, and Recover reads only the
// last.
func TestRunsSplitAtRestartCheckpoints(t *testing.T) {
	runs := build(t, twoRuns...)
	lead := build(t, lateRun...)[1:4] // a run cut off its restart checkpoint
	recs := append(append([]Record{}, lead...), runs...)
	dir := write(t, recs)
	log, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := log.Runs()
	if len(got) != 3 {
		t.Fatalf("%d runs, want 3", len(got))
	}
	// twoRuns' second run is one lateRun: a restart checkpoint, six
	// mutations and the late checkpoint.
	for i, want := range []int{len(lead), len(runs) - 8, 8} {
		if len(got[i]) != want {
			t.Fatalf("run %d holds %d records, want %d", i, len(got[i]), want)
		}
		if restart := got[i][0].Kind == KindCheckpoint && got[i][0].Checkpoint.Restart; restart != (i > 0) {
			t.Fatalf("run %d opens with a restart checkpoint: %v", i, restart)
		}
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointRev != 4 || rec.MutationsApplied != 3 || rec.Rev != 7 {
		t.Fatalf("recovered cpRev=%d rev=%d applied=%d, want 4, 7, 3", rec.CheckpointRev, rec.Rev, rec.MutationsApplied)
	}
	if got, want := mustJSON(t, rec.Problem), rollForward(t, runs); string(got) != string(want) {
		t.Fatalf("recovered problem\n%s\nwant\n%s", got, want)
	}

	// With no restart marked, the whole journal is one run.
	log, err = ReadDir(write(t, lead))
	if err != nil {
		t.Fatal(err)
	}
	if got := log.Runs(); len(got) != 1 || len(got[0]) != len(lead) {
		t.Fatalf("unmarked journal splits into %d runs", len(got))
	}
}
