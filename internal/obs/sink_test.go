package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// failAfter is a writer that starts failing after n successful writes.
type failAfter struct {
	ok int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.ok <= 0 {
		return 0, errors.New("disk full")
	}
	w.ok--
	return len(p), nil
}

// TestSinkCountsDroppedEvents: write errors are counted, both on the
// sink and on the registry counter a recorder wires in.
func TestSinkCountsDroppedEvents(t *testing.T) {
	sink := NewJSONLSink(&failAfter{ok: 2})
	rec := NewRecorder(NewRegistry(), sink)
	for i := 0; i < 5; i++ {
		rec.ServerSolve(int64(i), true, 0.1, 2.5, 10)
	}
	if got := sink.Drops(); got != 3 {
		t.Fatalf("sink drops = %d, want 3", got)
	}
	c := rec.Registry().Counter("streamopt_events_dropped_total", "")
	if got := c.Value(); got != 3 {
		t.Fatalf("streamopt_events_dropped_total = %d, want 3", got)
	}
}

// TestFileSinkCountsBufferedDrops: a file sink whose every write fails
// (/dev/full answers ENOSPC) loses the events in its buffer too, and
// counts each of them.
func TestFileSinkCountsBufferedDrops(t *testing.T) {
	sink, err := NewFileSink("/dev/full")
	if err != nil {
		t.Skipf("no /dev/full here: %v", err)
	}
	const total = 2000
	for i := 0; i < total; i++ {
		sink.Emit(Event{Type: EventServerSolve, Iter: i, Utility: float64(i)})
	}
	if err := sink.Close(); err == nil {
		t.Fatal("Close reported no error for a sink that wrote nothing")
	}
	if got := sink.Drops(); got != total {
		t.Fatalf("sink drops = %d, want every one of %d events", got, total)
	}
}

// TestRotatingFileSink caps the live file and keeps exactly one rotated
// predecessor, with every surviving line valid JSONL.
func TestRotatingFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	const maxBytes = 2048
	sink, err := NewRotatingFileSink(path, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		sink.Emit(Event{Type: EventServerSolve, Iter: i, Utility: float64(i)})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Drops() != 0 {
		t.Fatalf("rotation dropped %d events", sink.Drops())
	}

	checkFile := func(p string) int {
		f, err := os.Open(p)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		// A rotation triggers after crossing the cap, so allow one
		// line of overshoot.
		if st.Size() > maxBytes+256 {
			t.Fatalf("%s grew to %d bytes, cap %d", p, st.Size(), maxBytes)
		}
		n := 0
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var e Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("%s has invalid line %q: %v", p, sc.Text(), err)
			}
			n++
		}
		return n
	}
	live := checkFile(path)
	rotated := checkFile(path + ".1")
	if live == 0 || rotated == 0 {
		t.Fatalf("expected both live (%d lines) and rotated (%d lines) files populated", live, rotated)
	}
	// Only one rotation generation is kept.
	if _, err := os.Stat(path + ".2"); !os.IsNotExist(err) {
		t.Fatalf("unexpected second rotation file: %v", err)
	}
}

// TestRotatedStreamStaysParseable: the tail of the rotated file and the
// head of the live file are consecutive iterations (nothing lost at the
// rotation boundary).
func TestRotatedStreamStaysParseable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	sink, err := NewRotatingFileSink(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	const total = 200
	for i := 0; i < total; i++ {
		sink.Emit(Event{Type: EventServerSolve, Iter: i})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var iters []int
	for _, p := range []string{path + ".1", path} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var e Event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("bad line %q: %v", line, err)
			}
			iters = append(iters, e.Iter)
		}
	}
	if iters[len(iters)-1] != total-1 {
		t.Fatalf("last surviving iter = %d, want %d", iters[len(iters)-1], total-1)
	}
	for k := 1; k < len(iters); k++ {
		if iters[k] != iters[k-1]+1 {
			t.Fatalf("gap at rotation boundary: %d then %d", iters[k-1], iters[k])
		}
	}
}

// TestRotationRenameFailureGoesDead: when the live file cannot be moved
// aside, the sink keeps what it wrote and counts every later event as a
// drop, instead of truncating the file with a fresh one.
func TestRotationRenameFailureGoesDead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	// A non-empty directory at the rotation target makes os.Rename fail.
	if err := os.MkdirAll(filepath.Join(path+".1", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	sink, err := NewRotatingFileSink(path, 200)
	if err != nil {
		t.Fatal(err)
	}
	const total = 5
	for i := 0; i < total; i++ {
		sink.Emit(Event{Type: EventServerSolve, Iter: i, Utility: float64(i)})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Iter != i {
			t.Fatalf("line %d = %q (err %v), want iteration %d", i, line, err, i)
		}
	}
	if len(lines) < 2 || uint64(len(lines))+sink.Drops() != total {
		t.Fatalf("%d lines kept and %d drops counted, want every one of %d events accounted for",
			len(lines), sink.Drops(), total)
	}
}
