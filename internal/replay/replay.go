// Package replay re-drives a recorded flight-recorder journal through
// a fresh in-proc admission server and verifies the replayed decision
// trajectory — utility per generation, admitted sets, flip sequences —
// against the recorded digests, bit for bit.
//
// The journal partitions into runs at restart checkpoints (one per
// server boot). For each run the verifier starts a cold server with
// the recorded solver parameters and an external solve gate, then
// walks the run's records in file order: mutations queue up; a digest
// record flushes every queued mutation with revision ≤ the digest's,
// admits exactly one solve through the gate, and compares the
// published snapshot's digest to the recorded one. Because the solver
// is bitwise-deterministic and the gate reproduces the live run's
// solve boundaries (each digest names the revision its solve
// captured), every comparison is exact — a mismatch means the journal
// and the code disagree, not that timing drifted. Periodic non-restart
// checkpoints double as cross-checks: the replayed problem's canonical
// JSON must equal the recorded checkpoint bytes. They queue alongside
// mutations and are checked only once a flush passes their revision:
// checkpoints are journaled at mutation acceptance while digests land
// from the solver goroutine, so a checkpoint at rev M may precede the
// digest of a solve that captured rev N < M in file order, and eager
// verification would push the replayed state past that solve.
package replay

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/stream"
)

// Options tunes a verification.
type Options struct {
	// Workers overrides the recorded worker-pool bound (0 keeps the
	// recording's; the trajectory is identical either way — PR 4).
	Workers int
	// Speed paces the replay against the recorded wall-clock: 1 plays
	// mutations in real recorded time, 2 at double speed, 0 (default)
	// as fast as possible.
	Speed float64
	// Timeout bounds each replayed solve. Default 30s.
	Timeout time.Duration
	// Logf receives progress; nil is silent.
	Logf func(format string, args ...any)
}

// Mismatch is one divergence between the recorded and replayed
// trajectories, pinpointed to a run and generation.
type Mismatch struct {
	Run        int    `json:"run"`
	Generation int64  `json:"generation,omitempty"`
	Rev        int64  `json:"rev,omitempty"`
	Field      string `json:"field"`
	Recorded   string `json:"recorded"`
	Replayed   string `json:"replayed"`
}

func (m Mismatch) String() string {
	return fmt.Sprintf("run %d generation %d rev %d: %s: recorded %s, replayed %s",
		m.Run, m.Generation, m.Rev, m.Field, m.Recorded, m.Replayed)
}

// Report is the verification outcome.
type Report struct {
	Dir       string `json:"dir"`
	StreamSHA string `json:"streamSha,omitempty"`
	// Truncated reports the journal ended in a torn tail record (the
	// crash-loss window; everything before it still verifies).
	Truncated bool `json:"truncated,omitempty"`
	Runs      int  `json:"runs"`
	Mutations int  `json:"mutations"`
	Digests   int  `json:"digests"`
	// CheckpointsVerified counts the periodic checkpoints whose problem
	// bytes matched the replayed state exactly.
	CheckpointsVerified int `json:"checkpointsVerified"`
	// UnverifiedTailMutations counts mutations journaled after the last
	// digest of their run — accepted but never incorporated into a
	// published snapshot before the recording stopped.
	UnverifiedTailMutations int `json:"unverifiedTailMutations"`
	// DrainedDigests counts recorded solves truncated by server
	// shutdown; their iteration counts are wall-clock artifacts and are
	// excluded from verification.
	DrainedDigests int        `json:"drainedDigests,omitempty"`
	Mismatches     []Mismatch `json:"mismatches"`
	Seconds        float64    `json:"seconds"`
}

// Ok reports a clean verification.
func (r *Report) Ok() bool { return len(r.Mismatches) == 0 }

// Verify reads the journal at dir and replays every run against the
// recorded digests. The error covers unreadable or structurally
// invalid journals; trajectory divergences land in Report.Mismatches.
func Verify(dir string, opts Options) (*Report, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	log, err := journal.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep := &Report{Dir: dir, StreamSHA: log.StreamSHA(), Truncated: log.Truncated}

	runs, err := splitRuns(log.Records)
	if err != nil {
		return nil, err
	}
	rep.Runs = len(runs)
	for i, run := range runs {
		logf("replay: run %d/%d: %d records", i+1, len(runs), len(run))
		if err := verifyRun(i, run, opts, rep, logf); err != nil {
			return nil, fmt.Errorf("replay: run %d: %w", i, err)
		}
	}
	rep.Seconds = time.Since(start).Seconds()
	return rep, nil
}

// splitRuns partitions the record stream at restart checkpoints. Every
// journal written through server.New begins with one.
func splitRuns(recs []journal.Record) ([][]journal.Record, error) {
	var runs [][]journal.Record
	for _, r := range recs {
		if r.Kind == journal.KindCheckpoint && r.Checkpoint.Restart {
			runs = append(runs, nil)
		}
		if len(runs) == 0 {
			return nil, fmt.Errorf("journal does not begin with a restart checkpoint (first record: %s rev %d)", r.Kind, r.Rev)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("journal holds no records")
	}
	return runs, nil
}

// verifyRun replays one server lifetime. Structural failures (a
// mutation that no longer applies, a revision that drifts) abort the
// run with a mismatch recorded; value divergences (utility, admitted
// hash, flips) are recorded and the replay continues.
func verifyRun(runIdx int, run []journal.Record, opts Options, rep *Report, logf func(string, ...any)) error {
	boot := run[0]
	p, err := stream.ParseProblem(boot.Checkpoint.Problem)
	if err != nil {
		return fmt.Errorf("restart checkpoint: %w", err)
	}
	sp := boot.Checkpoint.Solver
	if sp == nil {
		return fmt.Errorf("restart checkpoint lacks solver parameters")
	}
	// The recorded solver, shard topology included: a run replays against
	// the identical partition and exchange cadence; zero fields (a journal
	// from before they were recorded at one shard) take the defaults.
	so := server.SolverOptions(sp)
	if opts.Workers > 0 {
		so.Workers = opts.Workers
	}
	gate := make(chan struct{})
	so.Debounce = -1 // replay batches by recorded revision, not wall-clock
	so.HistoryCap = -1
	so.SolveGate = gate
	so.Logf = func(string, ...any) {}
	srv, err := server.New(p, so)
	if err != nil {
		return err
	}
	defer srv.Close()

	if got := srv.Rev(); got != boot.Rev {
		rep.Mismatches = append(rep.Mismatches, Mismatch{
			Run: runIdx, Rev: boot.Rev, Field: "boot_rev",
			Recorded: fmt.Sprint(boot.Rev), Replayed: fmt.Sprint(got),
		})
		return nil
	}

	structural := func(m Mismatch) {
		m.Run = runIdx
		rep.Mismatches = append(rep.Mismatches, m)
	}

	var (
		queue    []journal.Record // mutations and checkpoints not yet reached by a flush
		prevSnap *server.Snapshot
		prevWall int64
	)
	// flush walks the queue — mutations and periodic checkpoints, in
	// journal order — applying and verifying every record with revision
	// ≤ rev. Checkpoints are journaled under the server mutex at
	// mutation acceptance, while digests land later from the solver
	// goroutine, so a checkpoint at rev M can precede the digest of a
	// solve that captured rev N < M in file order; verifying the
	// checkpoint only when a flush passes rev M keeps the replayed
	// state from running ahead of the solve boundaries. A returned
	// errDiverged means a mismatch was already recorded and the run is
	// over; any other error is operational.
	flush := func(rev int64) error {
		for len(queue) > 0 && queue[0].Rev <= rev {
			q := queue[0]
			queue = queue[1:]
			switch q.Kind {
			case journal.KindMutation:
				got, err := srv.Apply(*q.Mutation)
				if err != nil {
					structural(Mismatch{Rev: q.Rev, Field: "apply", Recorded: "applies cleanly",
						Replayed: fmt.Sprintf("%s %s: %v", q.Mutation.Op, q.Mutation.Target, err)})
					return errDiverged
				}
				if got != q.Rev {
					structural(Mismatch{Rev: q.Rev, Field: "apply",
						Recorded: fmt.Sprintf("rev %d (%s %s)", q.Rev, q.Mutation.Op, q.Mutation.Target),
						Replayed: fmt.Sprintf("rev drift: replayed rev %d", got)})
					return errDiverged
				}
				rep.Mutations++

			case journal.KindCheckpoint:
				got, err := srv.ProblemJSON()
				if err != nil {
					return err
				}
				if !bytes.Equal(got, q.Checkpoint.Problem) {
					structural(Mismatch{Rev: q.Rev, Field: "checkpoint_problem",
						Recorded: fmt.Sprintf("%d bytes", len(q.Checkpoint.Problem)),
						Replayed: fmt.Sprintf("%d bytes (differs)", len(got))})
					return errDiverged
				}
				rep.CheckpointsVerified++
			}
		}
		return nil
	}

	for _, r := range run {
		if opts.Speed > 0 && r.WallUnixNano > 0 {
			if prevWall > 0 && r.WallUnixNano > prevWall {
				time.Sleep(time.Duration(float64(r.WallUnixNano-prevWall) / opts.Speed))
			}
			prevWall = r.WallUnixNano
		}
		switch r.Kind {
		case journal.KindMutation:
			queue = append(queue, r)

		case journal.KindCheckpoint:
			if r.Checkpoint.Restart {
				continue // the boot checkpoint that opened this run
			}
			queue = append(queue, r)

		case journal.KindDigest:
			rec := r.Digest
			if rec.Drained {
				// The recording's final solve was truncated by the
				// shutdown drain at an arbitrary wall-clock point; its
				// iteration count is not reproducible, so the trajectory
				// ends at the previous digest.
				rep.DrainedDigests++
				continue
			}
			if err := flush(r.Rev); err != nil {
				if err == errDiverged {
					return nil
				}
				return err
			}
			// One recorded digest = one solve: wake the loop, admit one
			// solve through the gate, wait for the generation.
			srv.Kick()
			select {
			case gate <- struct{}{}:
			case <-time.After(opts.Timeout):
				structural(Mismatch{Generation: rec.Generation, Rev: r.Rev, Field: "solve_gate",
					Recorded: "solver accepts a solve", Replayed: "gate send timed out"})
				return nil
			}
			snap, err := srv.WaitForGeneration(rec.Generation, opts.Timeout)
			if err != nil {
				structural(Mismatch{Generation: rec.Generation, Rev: r.Rev, Field: "publish",
					Recorded: fmt.Sprintf("generation %d publishes", rec.Generation), Replayed: err.Error()})
				return nil
			}
			if snap.Generation != rec.Generation {
				structural(Mismatch{Generation: rec.Generation, Rev: r.Rev, Field: "generation",
					Recorded: fmt.Sprint(rec.Generation), Replayed: fmt.Sprint(snap.Generation)})
				return nil
			}
			got := snap.JournalDigest(server.DiffFlips(prevSnap, snap))
			prevSnap = snap
			compareDigest(runIdx, r.Rev, rec, got, snap, rep)
			rep.Digests++
		}
	}
	// Records journaled after the last digest were never solved for in
	// the recording: apply the mutations (they must still apply —
	// recovery depends on it) and cross-check any queued checkpoints,
	// but there is no digest to verify against. Flush past every
	// revision — the run's last record is usually a digest whose rev
	// trails the mutations journaled during that final solve.
	if len(queue) > 0 {
		before := rep.Mutations
		err := flush(math.MaxInt64)
		rep.UnverifiedTailMutations += rep.Mutations - before
		if err == errDiverged {
			return nil
		}
		return err
	}
	return nil
}

// errDiverged signals that a flush recorded a structural mismatch and
// the run cannot continue; the mismatch is already in the report.
var errDiverged = errors.New("replay: trajectory diverged")

// compareDigest checks every recorded field against the replayed
// snapshot; each divergence is an independent mismatch so the report
// pinpoints exactly what moved.
func compareDigest(run int, rev int64, rec, got *journal.Digest, snap *server.Snapshot, rep *Report) {
	add := func(field, recorded, replayed string) {
		rep.Mismatches = append(rep.Mismatches, Mismatch{
			Run: run, Generation: rec.Generation, Rev: rev,
			Field: field, Recorded: recorded, Replayed: replayed,
		})
	}
	if snap.Rev != rev {
		add("rev", fmt.Sprint(rev), fmt.Sprint(snap.Rev))
	}
	if got.Utility != rec.Utility {
		add("utility", fmt.Sprintf("%.17g", rec.Utility), fmt.Sprintf("%.17g", got.Utility))
	}
	if got.AdmittedHash != rec.AdmittedHash {
		add("admitted_hash", rec.AdmittedHash, got.AdmittedHash)
	}
	if got.Commodities != rec.Commodities {
		add("commodities", fmt.Sprint(rec.Commodities), fmt.Sprint(got.Commodities))
	}
	if got.Warm != rec.Warm {
		add("warm", fmt.Sprint(rec.Warm), fmt.Sprint(got.Warm))
	}
	if got.Iterations != rec.Iterations {
		add("iterations", fmt.Sprint(rec.Iterations), fmt.Sprint(got.Iterations))
	}
	if got.Converged != rec.Converged {
		add("converged", fmt.Sprint(rec.Converged), fmt.Sprint(got.Converged))
	}
	if got.Feasible != rec.Feasible {
		add("feasible", fmt.Sprint(rec.Feasible), fmt.Sprint(got.Feasible))
	}
	if !flipsEqual(rec.Flips, got.Flips) {
		add("flips", flipsString(rec.Flips), flipsString(got.Flips))
	}
}

func flipsEqual(a, b []journal.Flip) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func flipsString(fs []journal.Flip) string {
	if len(fs) == 0 {
		return "none"
	}
	b, _ := json.Marshal(fs)
	return string(b)
}
