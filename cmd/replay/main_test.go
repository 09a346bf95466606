package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/utility"
)

const waitBudget = 20 * time.Second

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
	ab, err := net.AddLink(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	bt1, err := net.AddLink(b, t1, 10)
	if err != nil {
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

// recordJournal runs a short journaled server session in dir.
func recordJournal(t *testing.T, dir string) {
	t.Helper()
	jw, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(toyProblem(t), server.Options{
		MaxIters:      1500,
		StationaryTol: 1e-3,
		Debounce:      2 * time.Millisecond,
		Journal:       jw,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetMaxRate("c1", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitForGeneration(2, waitBudget); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRealMainVerifiesCleanJournal(t *testing.T) {
	dir := t.TempDir()
	recordJournal(t, dir)
	out := filepath.Join(t.TempDir(), "report.json")

	var stdout, stderr bytes.Buffer
	code, err := realMain(cliConfig{
		journal: dir,
		timeout: waitBudget,
		out:     out,
		quiet:   true,
		stdout:  &stdout,
		stderr:  &stderr,
	})
	if err != nil {
		t.Fatalf("realMain: %v (stderr: %s)", err, stderr.String())
	}
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var rep struct {
		Runs       int   `json:"runs"`
		Digests    int   `json:"digests"`
		Mismatches []any `json:"mismatches"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, stdout.String())
	}
	if rep.Runs != 1 || rep.Digests < 2 || len(rep.Mismatches) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	// -out wrote the same report.
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(`"runs": 1`)) {
		t.Fatalf("-out report missing runs: %s", blob)
	}
}

func TestRealMainExitsNonzeroOnMismatch(t *testing.T) {
	dir := t.TempDir()
	recordJournal(t, dir)

	// Corrupt the last digest's utility and rewrite the journal.
	log, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Records
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == journal.KindDigest {
			recs[i].Digest.Utility += 1
			break
		}
	}
	bad := t.TempDir()
	w, err := journal.Create(bad, journal.Options{Fsync: journal.FsyncNever})
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

	var stdout, stderr bytes.Buffer
	code, err := realMain(cliConfig{
		journal: bad,
		timeout: waitBudget,
		quiet:   true,
		stdout:  &stdout,
		stderr:  &stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("utility")) {
		t.Fatalf("mismatch report does not name the field: %s", stderr.String())
	}
}

func TestRealMainRequiresJournalFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	_, err := realMain(cliConfig{stdout: &stdout, stderr: &stderr})
	if err == nil {
		t.Fatal("missing -journal accepted")
	}
}

func TestRealMainBadJournal(t *testing.T) {
	var stdout, stderr bytes.Buffer
	_, err := realMain(cliConfig{
		journal: filepath.Join(t.TempDir(), "empty"),
		quiet:   true,
		stdout:  &stdout,
		stderr:  &stderr,
	})
	if err == nil {
		t.Fatal("empty journal dir verified without error")
	}
}
