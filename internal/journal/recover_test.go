package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stream"
)

// writeJournal records a checkpoint of the toy problem plus mutations,
// returning the directory.
func writeJournal(t *testing.T, opts Options, muts []Mutation) string {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := toyProblem(t)
	pj, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: KindCheckpoint, Rev: 1, Checkpoint: &Checkpoint{Problem: pj, Restart: true}}); err != nil {
		t.Fatal(err)
	}
	for i := range muts {
		if err := w.Append(Record{Kind: KindMutation, Rev: int64(i + 2), Mutation: &muts[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRecoverRollsForward(t *testing.T) {
	dir := writeJournal(t, Options{Fsync: FsyncNever}, []Mutation{
		{Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 3})},
		{Op: OpSetCapacity, Target: "b", Payload: mustJSON(t, CapacityPayload{Capacity: 7})},
	})
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointRev != 1 || rec.Rev != 3 || rec.MutationsApplied != 2 {
		t.Fatalf("recovered cpRev=%d rev=%d applied=%d", rec.CheckpointRev, rec.Rev, rec.MutationsApplied)
	}
	c, ok := rec.Problem.CommodityByName("c1")
	if !ok || c.MaxRate != 3 {
		t.Fatalf("recovered c1 = %+v", c)
	}
	bID, _ := rec.Problem.Net.NodeByName("b")
	if rec.Problem.Net.Capacity[bID] != 7 {
		t.Fatalf("recovered capacity(b) = %v", rec.Problem.Net.Capacity[bID])
	}
}

// TestRecoverSurfacesSolverParams writes a restart checkpoint carrying
// shard topology followed by a plain checkpoint without one, and makes
// sure recovery surfaces the topology so a rebooting daemon can adopt
// it.
func TestRecoverSurfacesSolverParams(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(toyProblem(t))
	if err != nil {
		t.Fatal(err)
	}
	sp := &SolverParams{Epsilon: 0.2, Eta: 0.04, MaxIters: 100, Shards: 4, PlacementSalt: 7, PriceExchangeEvery: 25, PriceDamping: 0.5}
	if err := w.Append(Record{Kind: KindCheckpoint, Rev: 1, Checkpoint: &Checkpoint{Problem: pj, Restart: true, Solver: sp}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: KindCheckpoint, Rev: 2, Checkpoint: &Checkpoint{Problem: pj}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointRev != 2 {
		t.Fatalf("recovered from checkpoint rev %d, want 2", rec.CheckpointRev)
	}
	if rec.Solver == nil || rec.Solver.Shards != 4 || rec.Solver.PlacementSalt != 7 {
		t.Fatalf("recovered solver params = %+v, want shard topology from restart checkpoint", rec.Solver)
	}
}

// TestRecoverPrefersLastCheckpoint writes two checkpoints and makes
// sure recovery rolls forward from the newest one only.
func TestRecoverPrefersLastCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p := toyProblem(t)
	pj1, _ := json.Marshal(p)
	if err := w.Append(Record{Kind: KindCheckpoint, Rev: 1, Checkpoint: &Checkpoint{Problem: pj1, Restart: true}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: KindMutation, Rev: 2, Mutation: &Mutation{
		Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 2})}}); err != nil {
		t.Fatal(err)
	}
	// Periodic checkpoint capturing the rate-2 state.
	if err := Apply(p, &Mutation{Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 2})}); err != nil {
		t.Fatal(err)
	}
	pj2, _ := json.Marshal(p)
	if err := w.Append(Record{Kind: KindCheckpoint, Rev: 2, Checkpoint: &Checkpoint{Problem: pj2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: KindMutation, Rev: 3, Mutation: &Mutation{
		Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 9})}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointRev != 2 || rec.MutationsApplied != 1 || rec.Rev != 3 {
		t.Fatalf("recovered cpRev=%d rev=%d applied=%d", rec.CheckpointRev, rec.Rev, rec.MutationsApplied)
	}
	c, _ := rec.Problem.CommodityByName("c1")
	if c.MaxRate != 9 {
		t.Fatalf("recovered MaxRate = %v, want 9", c.MaxRate)
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
			dir := writeJournal(t, Options{Fsync: FsyncNever}, []Mutation{
				{Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 3})},
			})
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
	dir := writeJournal(t, Options{Fsync: FsyncNever}, []Mutation{
		{Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 3})},
	})
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
	dir := writeJournal(t, Options{Fsync: FsyncNever}, []Mutation{
		{Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 3})},
	})
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

func TestRecoverRequiresCheckpoint(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Kind: KindMutation, Rev: 1, Mutation: &Mutation{Op: OpRemoveCommodity, Target: "x"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("recovery without a checkpoint accepted")
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

// lateRun builds one server run the way the background checkpoint
// writer can leave it: a restart checkpoint of boot at bootRev, six
// mutations at bootRev+1…bootRev+6 in revision order, and the periodic
// checkpoint at bootRev+3 landing after the mutations at bootRev+4 and
// bootRev+5. The mutations mix absolute and relative writes, so a
// recovery that skips or repeats one shows in the problem's bytes.
func lateRun(t *testing.T, boot *stream.Problem, bootRev int64) []Record {
	t.Helper()
	muts := []Mutation{
		SetRate("c1", 3),
		ScaleCapacity("a", 0.5),
		SetCapacity("b", 7),
		ScaleBandwidth("a", "b", 0.5),
		SetRate("c1", 5),
		ScaleCapacity("b", 0.5),
	}
	p, err := stream.ParseProblem(mustJSON(t, boot))
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{{Kind: KindCheckpoint, Rev: bootRev, Checkpoint: &Checkpoint{Problem: mustJSON(t, p), Restart: true}}}
	var late Record
	for i := range muts {
		m := muts[i]
		if err := m.Encode(); err != nil {
			t.Fatal(err)
		}
		if err := Apply(p, &m); err != nil {
			t.Fatal(err)
		}
		rev := bootRev + int64(i) + 1
		recs = append(recs, Record{Kind: KindMutation, Rev: rev, Mutation: &m})
		switch i {
		case 2:
			late = Record{Kind: KindCheckpoint, Rev: rev, Checkpoint: &Checkpoint{Problem: mustJSON(t, p)}}
		case 4:
			recs = append(recs, late)
		}
	}
	return recs
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

// copyJournal writes recs through a fresh writer and returns the
// directory.
func copyJournal(t *testing.T, recs []Record) string {
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

// twoRuns is two server runs of lateRun: the second boots from the
// first's final state, with revisions restarting at 1. The first run
// ends with a periodic checkpoint at rev 7, above every revision the
// second run reaches.
func twoRuns(t *testing.T) []Record {
	t.Helper()
	first := lateRun(t, toyProblem(t), 1)
	end, err := stream.ParseProblem(rollForward(t, first))
	if err != nil {
		t.Fatal(err)
	}
	first = append(first, Record{Kind: KindCheckpoint, Rev: 7, Checkpoint: &Checkpoint{Problem: mustJSON(t, end)}})
	return append(first, lateRun(t, end, 1)...)
}

// TestRecoverLateCheckpoint: the checkpoint at rev 4 lands after the
// mutations at revs 5 and 6. Recovery starts from it and still applies
// them, then rev 7.
func TestRecoverLateCheckpoint(t *testing.T) {
	recs := lateRun(t, toyProblem(t), 1)
	rec, err := Recover(copyJournal(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointRev != 4 || rec.MutationsApplied != 3 || rec.Rev != 7 {
		t.Fatalf("recovered cpRev=%d rev=%d applied=%d, want 4, 7, 3", rec.CheckpointRev, rec.Rev, rec.MutationsApplied)
	}
	if got, want := mustJSON(t, rec.Problem), rollForward(t, recs); string(got) != string(want) {
		t.Fatalf("recovered problem\n%s\nwant\n%s", got, want)
	}
}

// TestRecoverIgnoresEarlierRunsCheckpoints: revisions restart with each
// run, so the first run's checkpoint at rev 7 outranks every checkpoint
// of the second by revision, yet it must not govern the second run.
func TestRecoverIgnoresEarlierRunsCheckpoints(t *testing.T) {
	recs := twoRuns(t)
	rec, err := Recover(copyJournal(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointRev != 4 || rec.MutationsApplied != 3 || rec.Rev != 7 {
		t.Fatalf("recovered cpRev=%d rev=%d applied=%d, want 4, 7, 3", rec.CheckpointRev, rec.Rev, rec.MutationsApplied)
	}
	if got, want := mustJSON(t, rec.Problem), rollForward(t, recs); string(got) != string(want) {
		t.Fatalf("recovered problem\n%s\nwant\n%s", got, want)
	}
}

// TestRecoverEveryPrefix cuts the two-run journal after every record —
// what a crash can leave — and checks that recovery always equals the
// newest run's boot checkpoint rolled forward through that prefix's
// mutations alone.
func TestRecoverEveryPrefix(t *testing.T) {
	recs := twoRuns(t)
	for n := 1; n <= len(recs); n++ {
		rec, err := Recover(copyJournal(t, recs[:n]))
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
	runs := twoRuns(t)
	lead := lateRun(t, toyProblem(t), 1)[1:4] // a run cut off its restart checkpoint
	recs := append(append([]Record{}, lead...), runs...)
	dir := copyJournal(t, recs)
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
	log, err = ReadDir(copyJournal(t, lead))
	if err != nil {
		t.Fatal(err)
	}
	if got := log.Runs(); len(got) != 1 || len(got[0]) != len(lead) {
		t.Fatalf("unmarked journal splits into %d runs", len(got))
	}
}
