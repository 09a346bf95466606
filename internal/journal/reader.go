package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stream"
)

// Segments lists the segment indices present in dir, ascending. A
// missing directory is an empty journal, not an error.
func Segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "journal-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".wal"))
		if err != nil {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// HasJournal reports whether dir holds at least one journal segment.
func HasJournal(dir string) (bool, error) {
	segs, err := Segments(dir)
	return len(segs) > 0, err
}

// Log is a fully read journal.
type Log struct {
	Dir      string
	Segments []int
	Headers  []Header
	// Records holds the checkpoint/mutation/digest records in file
	// order (headers separated out above).
	Records []Record
	// Truncated reports that a torn frame was found — and dropped — at
	// the journal's tail: the expected shape after a crash mid-append.
	Truncated bool
	// TornSegments lists every segment whose tail held a dropped torn
	// frame. Beyond the overall tail, a tear is legal exactly when the
	// next segment was opened by a different writer (a restart after
	// the crash that tore it); same-writer mid-journal tears are
	// corruption, because the writer syncs a segment before rotating.
	TornSegments []int
}

// StreamSHA returns the compiled-workload hash from the first header
// ("" when the journal was not recorded by a loadgen drive).
func (l *Log) StreamSHA() string {
	if len(l.Headers) == 0 {
		return ""
	}
	return l.Headers[0].StreamSHA
}

// ReadDir reads every segment of the journal at dir. A torn tail
// record is tolerated in the last segment (Log.Truncated) and in any
// segment whose successor was opened by a different writer — the
// shape a crash leaves after the daemon restarts and appends a fresh
// segment over the tear. A tear followed by the same writer's next
// segment is corruption and fails: the writer syncs a segment before
// rotating, so nothing legitimate tears there.
func ReadDir(dir string) (*Log, error) {
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("journal: no segments in %s", dir)
	}
	// Read every segment up front: a tear's legality depends on who
	// wrote the segment after it.
	type segData struct {
		recs []Record
		torn *tear
	}
	data := make([]segData, len(segs))
	for i, seg := range segs {
		recs, torn, err := readSegment(filepath.Join(dir, SegmentName(seg)))
		if err != nil {
			return nil, err
		}
		data[i] = segData{recs: recs, torn: torn}
	}
	// A trailing segment with no complete records is a boot crash: the
	// writer created the file (and fsynced the directory) but died
	// before its buffered header reached disk. Drop it — possibly
	// repeatedly, if a crash loop left several.
	log := &Log{Dir: dir, Segments: segs}
	for len(data) > 0 && len(data[len(data)-1].recs) == 0 {
		log.Truncated = true
		log.TornSegments = append(log.TornSegments, segs[len(data)-1])
		data = data[:len(data)-1]
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("journal: no complete records in %s", dir)
	}
	headerOf := func(i int) (*Header, error) {
		recs := data[i].recs
		if len(recs) == 0 {
			// Mid-journal empty segment: an abandoned boot-crash file
			// with a later boot's segment after it. Nothing was lost —
			// the dead writer never wrote a durable record.
			return nil, nil
		}
		if recs[0].Kind != KindHeader || recs[0].Header == nil {
			return nil, fmt.Errorf("journal: segment %d lacks a header record", segs[i])
		}
		if recs[0].Header.Segment != segs[i] {
			return nil, fmt.Errorf("journal: segment %d header names segment %d", segs[i], recs[0].Header.Segment)
		}
		return recs[0].Header, nil
	}
	for i := range data {
		hdr, err := headerOf(i)
		if err != nil {
			return nil, err
		}
		if hdr == nil {
			log.TornSegments = append(log.TornSegments, segs[i])
			continue
		}
		if t := data[i].torn; t != nil {
			last := i == len(data)-1
			if !last {
				next, err := headerOf(i + 1)
				if err != nil {
					return nil, err
				}
				// A nil next header is itself a dead writer's empty
				// segment — a different writer by construction.
				if next != nil && next.JournalID == hdr.JournalID {
					return nil, fmt.Errorf("journal: %s at %s:%d (mid-journal corruption)",
						t.why, SegmentName(segs[i]), t.off)
				}
			}
			log.Truncated = log.Truncated || last
			log.TornSegments = append(log.TornSegments, segs[i])
		}
		log.Headers = append(log.Headers, *hdr)
		for _, r := range data[i].recs[1:] {
			if r.Kind == KindHeader {
				return nil, fmt.Errorf("journal: segment %d has a stray mid-segment header", segs[i])
			}
			log.Records = append(log.Records, r)
		}
	}
	return log, nil
}

// tear locates a dropped torn frame within a segment.
type tear struct {
	off int
	why string
}

// readSegment decodes one segment file. A short or CRC-failing frame
// terminates the read cleanly with the tear's position; ReadDir
// decides whether that tear is a tolerable crash artifact or
// mid-journal corruption.
func readSegment(path string) (recs []Record, torn *tear, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			return recs, &tear{off, "partial frame header"}, nil
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordBytes {
			return recs, &tear{off, "implausible frame length"}, nil
		}
		if len(data)-off-frameHeaderLen < n {
			return recs, &tear{off, "partial frame payload"}, nil
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return recs, &tear{off, "frame CRC mismatch"}, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The CRC passed, so these are the bytes that were written;
			// an undecodable record is corruption (or version skew)
			// wherever it sits.
			return nil, nil, fmt.Errorf("journal: undecodable record at %s:%d: %w", filepath.Base(path), off, err)
		}
		recs = append(recs, rec)
		off += frameHeaderLen + n
	}
	return recs, nil, nil
}

// Recovered is the reconstructed server state after a crash: the
// newest run's latest checkpoint rolled forward through every later
// mutation of that run.
type Recovered struct {
	Log *Log
	// Problem is the desired problem at the journal tail — what the
	// crashed server held under its mutex, minus any unsynced loss.
	Problem *stream.Problem
	// Rev is the revision of Problem (the checkpoint's or the last
	// applied mutation's revision, whichever is later).
	Rev int64
	// CheckpointRev and MutationsApplied describe the roll-forward.
	CheckpointRev    int64
	MutationsApplied int
	// Solver holds the solver knobs and shard topology from the newest
	// restart checkpoint, so a recovering server can boot with the same
	// configuration that recorded the journal tail. Nil on journals
	// whose restart checkpoints predate solver-param recording.
	Solver *SolverParams
}

// Runs splits the records at restart checkpoints: one run per server
// boot, each opening with its restart checkpoint. Records before the
// first restart checkpoint form a leading run that does not open with
// one. Revisions restart with every run.
func (l *Log) Runs() [][]Record {
	var runs [][]Record
	start := 0
	for i, r := range l.Records {
		if i > start && r.Kind == KindCheckpoint && r.Checkpoint.Restart {
			runs = append(runs, l.Records[start:i:i])
			start = i
		}
	}
	if start < len(l.Records) {
		runs = append(runs, l.Records[start:])
	}
	return runs
}

// Recover reads the journal and rebuilds the problem the server should
// boot with. Revisions restart with every server run, so it reads only
// the last of Log.Runs (the whole journal if no restart is marked).
// Within that run mutations lie in revision order, but a periodic
// checkpoint at rev M is written in the background and may land after
// mutations M+1…M+k; so Recover parses the run's checkpoint with the
// highest revision and applies every mutation of the run whose revision
// is higher, wherever it sits in the file. The caller starts a fresh
// server over the result and keeps appending to the same directory; the
// server's boot checkpoint (Restart=true) opens the next run.
func Recover(dir string) (*Recovered, error) {
	log, err := ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var run []Record
	if runs := log.Runs(); len(runs) > 0 {
		run = runs[len(runs)-1]
	}
	var cp *Record
	for i, r := range run {
		if r.Kind == KindCheckpoint && (cp == nil || r.Rev > cp.Rev) {
			cp = &run[i]
		}
	}
	if cp == nil {
		return nil, fmt.Errorf("journal: no checkpoint in %s", dir)
	}
	p, err := stream.ParseProblem(cp.Checkpoint.Problem)
	if err != nil {
		return nil, fmt.Errorf("journal: checkpoint at rev %d: %w", cp.Rev, err)
	}
	var solver *SolverParams
	if run[0].Kind == KindCheckpoint {
		solver = run[0].Checkpoint.Solver
	}
	out := &Recovered{Log: log, Problem: p, Rev: cp.Rev, CheckpointRev: cp.Rev, Solver: solver}
	for _, r := range run {
		if r.Kind != KindMutation || r.Rev <= cp.Rev {
			continue
		}
		if err := Apply(p, r.Mutation); err != nil {
			return nil, fmt.Errorf("journal: replaying mutation rev %d (%s %s): %w",
				r.Rev, r.Mutation.Op, r.Mutation.Target, err)
		}
		out.Rev = r.Rev
		out.MutationsApplied++
	}
	return out, nil
}
