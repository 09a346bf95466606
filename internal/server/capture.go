package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/span"
)

// Anomaly-triggered diagnostics capture. When the server detects a
// decision-latency SLO breach, an unexpected warm-start fallback, or a
// solver divergence, it dumps a bundle — journal tail, span ring, heap
// and goroutine profiles — into a timestamped subdirectory of
// Options.CaptureDir. The dump runs on its own goroutine (the solver
// never blocks on profile serialization), at most one at a time,
// rate-limited by captureMinInterval, and writes through a temp
// directory renamed into place so readers never see a half-written
// bundle.

// captureTailRecords bounds the journal records dumped into a bundle;
// captureMinInterval is the least time between two captures.
const (
	captureTailRecords = 256
	captureMinInterval = 30 * time.Second
)

// BundleInfo describes one finished capture bundle, as listed by
// GET /debug/bundles.
type BundleInfo struct {
	Name       string    `json:"name"`
	Reason     string    `json:"reason"`
	Detail     string    `json:"detail,omitempty"`
	Generation int64     `json:"generation"`
	Rev        int64     `json:"rev"`
	At         time.Time `json:"at"`
	Files      []string  `json:"files"`
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
		s.opts.Recorder.Capture(reason, name)
		s.opts.Logf("server: captured diagnostics bundle %s (%s)", name, reason)
	}()
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
		err := writeFile("journal-tail.jsonl", func(f *os.File) error {
			enc := json.NewEncoder(f)
			for _, r := range w.Tail(captureTailRecords) {
				if err := enc.Encode(r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return "", err
		}
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
