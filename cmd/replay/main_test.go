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
)

const waitBudget = 20 * time.Second

// runs holds, by test name, the -journal a realMain run gets and what
// it must return: the exit code and a field its stderr report names,
// or, at code -1, an error.
var runs = map[string]struct {
	journal func(t *testing.T) string
	code    int
	stderr  string
}{
	"TestRealMainVerifiesCleanJournal":   {recorded(nil), 0, "no mismatches"},
	"TestRealMainExitsNonzeroOnMismatch": {recorded(func(d *journal.Digest) { d.Utility++ }), 1, "utility"},
	"TestRealMainRequiresJournalFlag":    {func(*testing.T) string { return "" }, -1, ""},
	"TestRealMainBadJournal":             {func(t *testing.T) string { return filepath.Join(t.TempDir(), "empty") }, -1, ""},
}

func TestRealMainVerifiesCleanJournal(t *testing.T)   { checkRun(t) }
func TestRealMainExitsNonzeroOnMismatch(t *testing.T) { checkRun(t) }
func TestRealMainRequiresJournalFlag(t *testing.T)    { checkRun(t) }
func TestRealMainBadJournal(t *testing.T)             { checkRun(t) }

// checkRun runs realMain on the calling test's row of runs. A run that
// exits writes its report to stdout and, the same bytes, to -out: one
// run, both digests, and one mismatch per exit code.
func checkRun(t *testing.T) {
	row, ok := runs[t.Name()]
	if !ok {
		t.Fatal("no run for this test")
	}
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code, err := realMain(cliConfig{
		journal: row.journal(t),
		timeout: waitBudget,
		out:     out,
		quiet:   true,
		stdout:  &stdout,
		stderr:  &stderr,
	})
	if row.code < 0 {
		if err == nil {
			t.Fatalf("realMain accepted the journal (stderr: %s)", stderr.String())
		}
		return
	}
	if err != nil {
		t.Fatalf("realMain: %v (stderr: %s)", err, stderr.String())
	}
	if code != row.code || !bytes.Contains(stderr.Bytes(), []byte(row.stderr)) {
		t.Fatalf("exit code %d, want %d with %q on stderr: %s", code, row.code, row.stderr, stderr.String())
	}
	var rep struct {
		Runs       int   `json:"runs"`
		Digests    int   `json:"digests"`
		Mismatches []any `json:"mismatches"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, stdout.String())
	}
	if rep.Runs != 1 || rep.Digests != 2 || len(rep.Mismatches) != code {
		t.Fatalf("report = %+v", rep)
	}
	if blob, err := os.ReadFile(out); err != nil || !bytes.Equal(blob, stdout.Bytes()) {
		t.Fatalf("-out report %q (%v), stdout %q", blob, err, stdout.String())
	}
}

// recorded makes a row's journal: a short journaled server session on
// the repository's toy fixture, its last digest rewritten by corrupt
// unless that is nil.
func recorded(corrupt func(*journal.Digest)) func(*testing.T) string {
	return func(t *testing.T) string {
		data, err := os.ReadFile("../../testdata/toy-problem.json")
		if err != nil {
			t.Fatal(err)
		}
		p, err := stream.ParseProblem(data)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		jw, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(p, server.Options{
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
		if corrupt == nil {
			return dir
		}

		log, err := journal.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(log.Records) - 1; i >= 0; i-- {
			if log.Records[i].Kind == journal.KindDigest {
				corrupt(log.Records[i].Digest)
				break
			}
		}
		bad := t.TempDir()
		w, err := journal.Create(bad, journal.Options{Fsync: journal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range log.Records {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return bad
	}
}
