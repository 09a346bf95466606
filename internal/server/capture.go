package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
	"repro/internal/obs/span"
)

// Anomaly-triggered diagnostics capture. When the server detects a
// decision-latency SLO breach, an unexpected warm-start fallback, or a
// solver divergence, it dumps a bundle — span ring, heap and goroutine
// profiles, and a pointer into the journal — into a timestamped
// subdirectory of Options.CaptureDir. The bundle copies no journal
// records: it syncs the journal, so every record up to the anomaly is
// on disk, and names the journal directory and the segment then open;
// journal.ReadDir or cmd/replay read the records there. The dump runs
// on its own goroutine (the solver never blocks on profile
// serialization), at most one at a time,
// rate-limited by captureMinInterval, and writes through a temp
// directory renamed into place so readers never see a half-written
// bundle.

// captureMinInterval is the least time between two captures.
const captureMinInterval = 30 * time.Second

// BundleInfo describes one finished capture bundle, as listed by
// GET /debug/bundles.
type BundleInfo struct {
	Name       string `json:"name"`
	Reason     string `json:"reason"`
	Detail     string `json:"detail,omitempty"`
	Generation int64  `json:"generation"`
	Rev        int64  `json:"rev"`
	// JournalDir and JournalSegment, set when the server journals, say
	// where the records up to the anomaly are: the journal directory and
	// the file name of the segment open when the bundle was written,
	// synced first. The digest of Generation lies in that segment or an
	// earlier one.
	JournalDir     string    `json:"journalDir,omitempty"`
	JournalSegment string    `json:"journalSegment,omitempty"`
	At             time.Time `json:"at"`
	Files          []string  `json:"files"`
}

// maybeCapture fires a diagnostics dump for the named reason unless
// capture is disabled, another dump is in flight, or one finished less
// than captureMinInterval ago. Never blocks the caller.
func (s *Server) maybeCapture(reason, detail string) {
	if s.opts.CaptureDir == "" {
		return
	}
	now := time.Now().UnixNano()
	last := s.captureLast.Load()
	if last != 0 && now-last < int64(captureMinInterval) {
		return
	}
	if !s.captureBusy.CompareAndSwap(false, true) {
		return
	}
	s.captureLast.Store(now)
	gen, rev := int64(0), int64(0)
	if snap := s.snap.Load(); snap != nil {
		gen, rev = snap.Generation, snap.Rev
	}
	seq := s.captureSeq.Add(1)
	go func() {
		defer s.captureBusy.Store(false)
		name, err := s.writeBundle(seq, reason, detail, gen, rev)
		if err != nil {
			s.opts.Logf("server: capture %q failed: %v", reason, err)
			return
		}
		s.opts.Recorder.Capture(reason)
		s.opts.Logf("server: captured diagnostics bundle %s (%s)", name, reason)
	}()
}

// lastCaptureSeq returns the highest sequence number among the
// cap-NNNNNN-<reason> bundles already in dir, 0 when there are none (or
// no dir). A server starts its own numbering after it, so one that
// boots into a capture directory an earlier process wrote — a daemon
// recovering into the same -journal-dir — never renames a new bundle
// onto an old one.
func lastCaptureSeq(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var last int64
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), "cap-")
		if !ok {
			continue
		}
		digits, _, _ := strings.Cut(rest, "-")
		if n, err := strconv.ParseInt(digits, 10, 64); err == nil {
			last = max(last, n)
		}
	}
	return last
}

// writeBundle assembles one bundle in a temp directory and renames it
// into place. Returns the bundle's directory name.
func (s *Server) writeBundle(seq int64, reason, detail string, gen, rev int64) (string, error) {
	name := fmt.Sprintf("cap-%06d-%s", seq, reason)
	tmp := filepath.Join(s.opts.CaptureDir, "."+name+".tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	info := BundleInfo{
		Name:       name,
		Reason:     reason,
		Detail:     detail,
		Generation: gen,
		Rev:        rev,
		At:         time.Now().UTC(),
	}

	writeFile := func(file string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(tmp, file))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", file, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		info.Files = append(info.Files, file)
		return nil
	}

	if w := s.opts.Journal; w != nil {
		if err := w.Sync(); err != nil {
			return "", err
		}
		info.JournalDir, info.JournalSegment = w.Dir(), journal.SegmentName(w.Segment())
	}
	if tr := s.opts.Spans; tr != nil {
		err := writeFile("spans.jsonl", func(f *os.File) error {
			enc := json.NewEncoder(f)
			for _, sp := range tr.Spans(span.Filter{}) {
				if err := enc.Encode(sp); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	err := writeFile("heap.pprof", func(f *os.File) error {
		return pprof.Lookup("heap").WriteTo(f, 0)
	})
	if err != nil {
		return "", err
	}
	err = writeFile("goroutine.pprof", func(f *os.File) error {
		return pprof.Lookup("goroutine").WriteTo(f, 0)
	})
	if err != nil {
		return "", err
	}

	info.Files = append(info.Files, "meta.json") // the manifest lists itself
	meta, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), meta, 0o644); err != nil {
		return "", err
	}

	if err := os.Rename(tmp, filepath.Join(s.opts.CaptureDir, name)); err != nil {
		return "", err
	}
	return name, nil
}

// Bundles lists the finished capture bundles in the capture directory,
// oldest first. A missing directory (nothing captured yet) is an empty
// list.
func (s *Server) Bundles() ([]BundleInfo, error) {
	if s.opts.CaptureDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.opts.CaptureDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []BundleInfo
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		meta, err := os.ReadFile(filepath.Join(s.opts.CaptureDir, e.Name(), "meta.json"))
		if err != nil {
			continue // half-written bundles are invisible by design
		}
		var info BundleInfo
		if err := json.Unmarshal(meta, &info); err != nil {
			continue
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
