package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/loadgen"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/stream"
)

const flashcrowd = "../../examples/scenarios/flashcrowd.json"

func run(t *testing.T, cfg config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := realMain(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Fixed seed ⇒ byte-identical event streams across CLI runs.
func TestEventsAreByteIdentical(t *testing.T) {
	cfg := config{scenario: flashcrowd, scale: 1, events: true}
	a, b := run(t, cfg), run(t, cfg)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("two -events runs with the same seed printed different streams")
	}
	cfg.scale = 2
	if bytes.Equal(a, run(t, cfg)) {
		t.Fatal("-scale 2 printed the same stream as -scale 1")
	}
}

// Two -sweep runs must drive byte-identical event streams at every
// scale (the report pins each stream's SHA-256) and agree on the knee.
func TestSweepIsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full sweeps; skipped in -short")
	}
	cfg := config{
		scenario: flashcrowd,
		sweep:    true,
		scales:   "0.25,1,4,10",
		sync:     1,
		timeout:  30 * time.Second,
		debounce: -time.Nanosecond,
		iters:    200,
	}
	parse := func(data []byte) loadgen.Report {
		var rep loadgen.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := parse(run(t, cfg)), parse(run(t, cfg))
	if len(a.Points) != 4 || len(b.Points) != 4 {
		t.Fatalf("want 4 points, got %d and %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i].EventStreamSHA256 == "" ||
			a.Points[i].EventStreamSHA256 != b.Points[i].EventStreamSHA256 {
			t.Fatalf("scale %g drove different event streams across runs", a.Points[i].Scale)
		}
		if a.Points[i].Mutations != b.Points[i].Mutations {
			t.Fatalf("scale %g applied different mutation counts", a.Points[i].Scale)
		}
	}
	if a.Knee == nil || b.Knee == nil || a.Knee.Scale != b.Knee.Scale {
		t.Fatalf("knee disagreement: %+v vs %+v", a.Knee, b.Knee)
	}
}

// -base prints a commodity-free instance that round-trips through the
// problem parser and boots a server — the documented way to stand up a
// remote admissiond for -target runs.
func TestBaseInstanceBootsServer(t *testing.T) {
	data := run(t, config{scenario: flashcrowd, scale: 1, base: true})
	p, err := stream.ParseProblem(data)
	if err != nil {
		t.Fatalf("-base output does not parse: %v", err)
	}
	if len(p.Commodities) != 0 {
		t.Fatalf("base instance has %d commodities, want 0", len(p.Commodities))
	}
	srv, err := server.New(p, server.Options{Debounce: -time.Nanosecond, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatalf("server.New on base instance: %v", err)
	}
	srv.Close()
}

func TestBadFlagCombos(t *testing.T) {
	var buf bytes.Buffer
	if err := realMain(&buf, config{scenario: flashcrowd}); err == nil {
		t.Fatal("no mode selected should error")
	}
	if err := realMain(&buf, config{scenario: flashcrowd, events: true, sweep: true}); err == nil {
		t.Fatal("two modes should error")
	}
	if err := realMain(&buf, config{events: true}); err == nil {
		t.Fatal("missing -scenario should error")
	}
	if err := realMain(&buf, config{scenario: flashcrowd, sweep: true, scales: "1,-2"}); err == nil {
		t.Fatal("negative scale should error")
	}
}

// TestRunJournalRecordsReplayableTrajectory drives a run through the
// flight recorder and verifies the journal's mutation records are the
// compiled script, in order, that it replays with zero trajectory
// mismatches, and that it carries the compiled stream's identity.
func TestRunJournalRecordsReplayableTrajectory(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	run(t, config{
		scenario: flashcrowd,
		scale:    1,
		run:      true,
		sync:     1,
		timeout:  30 * time.Second,
		debounce: -1,
		journal:  jdir,
	})

	log, err := journal.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(flashcrowd)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := loadgen.ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadgen.Compile(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSHA, err := c.EventStreamHash()
	if err != nil {
		t.Fatal(err)
	}
	if got := log.StreamSHA(); got != wantSHA {
		t.Fatalf("journal header stream SHA = %q, compiled stream = %q", got, wantSHA)
	}
	var want []journal.Mutation
	for _, ep := range c.Epochs {
		for _, m := range ep.Mutations {
			if err := m.Encode(); err != nil {
				t.Fatal(err)
			}
			want = append(want, m)
		}
	}
	var got []*journal.Mutation
	for _, r := range log.Records {
		if r.Kind == journal.KindMutation {
			got = append(got, r.Mutation)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("journal holds %d mutation records, compiled %d", len(got), len(want))
	}
	for i, m := range got {
		if m.Op != want[i].Op || m.Target != want[i].Target || !bytes.Equal(m.Payload, want[i].Payload) {
			t.Fatalf("mutation record %d is %s %s %s, compiled %s %s %s",
				i, m.Op, m.Target, m.Payload, want[i].Op, want[i].Target, want[i].Payload)
		}
	}

	rep, err := replay.Verify(jdir, replay.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, m := range rep.Mismatches {
			t.Errorf("mismatch: %s", m)
		}
		t.Fatal("recorded run did not replay cleanly")
	}
	if rep.Digests == 0 || rep.Mutations == 0 {
		t.Fatalf("replay verified nothing: %+v", rep)
	}
}

func TestJournalFlagCombos(t *testing.T) {
	var buf bytes.Buffer
	if err := realMain(&buf, config{scenario: flashcrowd, events: true, journal: "x"}); err == nil {
		t.Fatal("-journal without -run should error")
	}
	err := realMain(&buf, config{
		scenario: flashcrowd, run: true, target: "http://127.0.0.1:1",
		journal: "x", sync: 1, timeout: time.Second,
	})
	if err == nil {
		t.Fatal("-journal with -target should error")
	}
}
