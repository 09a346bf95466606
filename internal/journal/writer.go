package journal

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// FsyncPolicy controls when appended records are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncInterval (the default) flushes+fsyncs when an append finds
	// fsyncEvery elapsed since the last sync — bounded data loss at
	// near-zero steady-state cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs every append. Durable to the last record,
	// pays a disk round-trip per mutation.
	FsyncAlways
	// FsyncNever leaves flushing to segment rotation and Close. A
	// crash loses the whole buffered tail; fine for benchmarks and
	// replay fixtures.
	FsyncNever
)

// fsyncEvery is FsyncInterval's interval.
const fsyncEvery = 100 * time.Millisecond

// ParseFsyncPolicy maps the CLI spelling ("interval", "always",
// "never") to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want interval, always, or never)", s)
}

// Options configures a Writer. The zero value is usable.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this size. Default 64 MiB.
	SegmentBytes int64
	// Fsync is the durability policy.
	Fsync FsyncPolicy
	// StreamSHA is stamped into every segment header (see Header).
	StreamSHA string
	// Registry, when non-nil, receives the journal gauges/counters
	// (streamopt_journal_*): appended records/bytes, fsyncs, current
	// segment, and the unsynced lag behind the last fsync.
	Registry *obs.Registry
}

func (o *Options) setDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

// Writer appends framed records to the journal directory. Safe for
// concurrent use: the server appends mutations under its own mutex,
// digests from the solver goroutine and periodic checkpoints from its
// checkpoint goroutine. It keeps nothing it has written: it holds only
// the open segment's 64 KiB write buffer, and every reader (ReadDir,
// Recover, replay, whoever follows a capture bundle's pointer) finds
// the records on disk.
type Writer struct {
	dir   string
	opts  Options
	id    string
	birth time.Time

	mu       sync.Mutex
	f        *os.File
	buf      *bufio.Writer
	seg      int
	segSize  int64
	lagBytes int64 // appended but not yet fsynced
	lagRecs  int
	lastSync time.Time
	closed   bool

	mRecords  *obs.Counter
	mBytes    *obs.Counter
	mSegment  *obs.Gauge
	mLagBytes *obs.Gauge
	mLagRecs  *obs.Gauge
}

// Create opens a writer over dir, creating it if needed. An existing
// journal is continued: the writer starts a fresh segment after the
// highest existing one and never rewrites old bytes, so recovery after
// a crash appends to the same history it just read.
func Create(dir string, opts Options) (*Writer, error) {
	opts.setDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	next := 0
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, fmt.Errorf("journal: id: %w", err)
	}
	w := &Writer{
		dir:      dir,
		opts:     opts,
		id:       hex.EncodeToString(idb[:]),
		birth:    time.Now(),
		seg:      next - 1, // openSegment increments
		lastSync: time.Now(),
	}
	if reg := opts.Registry; reg != nil {
		w.mRecords = reg.Counter("streamopt_journal_records_total", "Records appended to the flight-recorder journal.")
		w.mBytes = reg.Counter("streamopt_journal_bytes_total", "Bytes appended to the flight-recorder journal.")
		w.mSegment = reg.Gauge("streamopt_journal_segment", "Current journal segment index.")
		w.mLagBytes = reg.Gauge("streamopt_journal_unsynced_bytes", "Journal bytes appended but not yet fsynced.")
		w.mLagRecs = reg.Gauge("streamopt_journal_unsynced_records", "Journal records appended but not yet fsynced.")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// Dir reports the journal directory.
func (w *Writer) Dir() string { return w.dir }

// SegmentName renders a segment index as its file name.
func SegmentName(seg int) string { return fmt.Sprintf("journal-%08d.wal", seg) }

// openSegmentLocked starts the next segment and writes its header.
func (w *Writer) openSegmentLocked() error {
	w.seg++
	path := filepath.Join(w.dir, SegmentName(w.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.f = f
	w.buf = bufio.NewWriterSize(f, 1<<16)
	w.segSize = 0
	if w.mSegment != nil {
		w.mSegment.Set(float64(w.seg))
	}
	hdr := Record{
		Kind: KindHeader,
		Header: &Header{
			Version:   Version,
			JournalID: w.id,
			Segment:   w.seg,
			StreamSHA: w.opts.StreamSHA,
		},
	}
	frame, err := w.frame(&hdr)
	if err != nil {
		return err
	}
	if err := w.writeLocked(frame); err != nil {
		return err
	}
	// Make the new segment's existence durable: fsync the directory so
	// a crash right after rotation cannot orphan the file name.
	if d, err := os.Open(w.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Append stamps and writes one record, applying the fsync policy and
// rotating segments as configured. The record is stamped and framed
// (JSON, CRC) before the writer's lock is taken, so a large checkpoint
// encoding on one goroutine does not hold up the small appends of
// another; under the lock Append only buffers, rotates and syncs.
// Records land in the order their appends take the lock.
func (w *Writer) Append(rec Record) error {
	frame, err := w.frame(&rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: writer closed")
	}
	if w.segSize >= w.opts.SegmentBytes {
		if err := w.syncLocked(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		if err := w.openSegmentLocked(); err != nil {
			return err
		}
	}
	return w.writeLocked(frame)
}

// frame stamps the record's zero clocks and encodes it as one frame.
func (w *Writer) frame(rec *Record) ([]byte, error) {
	if rec.WallUnixNano == 0 {
		rec.WallUnixNano = time.Now().UnixNano()
	}
	if rec.MonoNanos == 0 {
		rec.MonoNanos = time.Since(w.birth).Nanoseconds()
	}
	return encodeFrame(rec)
}

// writeLocked buffers one framed record, then applies the fsync
// policy.
func (w *Writer) writeLocked(frame []byte) error {
	if _, err := w.buf.Write(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.segSize += int64(len(frame))
	w.lagBytes += int64(len(frame))
	w.lagRecs++
	if w.mRecords != nil {
		w.mRecords.Inc()
		w.mBytes.Add(len(frame))
		w.mLagBytes.Set(float64(w.lagBytes))
		w.mLagRecs.Set(float64(w.lagRecs))
	}
	switch w.opts.Fsync {
	case FsyncAlways:
		return w.syncLocked()
	case FsyncInterval:
		if time.Since(w.lastSync) >= fsyncEvery {
			return w.syncLocked()
		}
	}
	return nil
}

// Sync flushes buffered records and fsyncs the current segment.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.lagBytes, w.lagRecs = 0, 0
	w.lastSync = time.Now()
	if w.mLagBytes != nil {
		w.mLagBytes.Set(0)
		w.mLagRecs.Set(0)
	}
	return nil
}

// Segment reports the current segment index.
func (w *Writer) Segment() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seg
}

// Close syncs and closes the current segment. The writer is unusable
// afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: %w", cerr)
	}
	return err
}
