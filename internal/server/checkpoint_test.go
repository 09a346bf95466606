package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/stream"
)

// within runs fn and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s blocked behind a checkpoint held mid-marshal", what)
	}
}

// TestCheckpointOffTheAcceptPath holds the first periodic checkpoint
// mid-marshal. Mutations and GET /v1/problem still answer, Close waits
// for the held checkpoint and the one queued behind it, and the journal
// it leaves — checkpoints 3 and 5 land after mutation 6 — verifies and
// recovers by revision.
func TestCheckpointOffTheAcceptPath(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	held := false
	restore := server.StubCheckpointMarshal(func(p *stream.Problem) ([]byte, error) {
		if !held { // the checkpoint goroutine is the only caller
			held = true
			close(entered)
			<-release
		}
		return p.MarshalJSON()
	})
	defer restore()

	dir := t.TempDir()
	jw, err := journal.Create(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.ToyProblem(t), server.Options{
		MaxIters:        1500,
		StationaryTol:   1e-3,
		Debounce:        2 * time.Millisecond,
		Logf:            func(string, ...any) {},
		Journal:         jw,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(nil))
	defer ts.Close()
	if _, err := s.WaitForGeneration(1, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	setRate := func(rate float64) func() error {
		return func() error { _, err := s.SetMaxRate("c1", rate); return err }
	}
	for _, rate := range []float64{3, 4} { // revs 2, 3: checkpoint 3 falls due
		within(t, 5*time.Second, "SetMaxRate", setRate(rate))
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("checkpoint at rev 3 never started")
	}
	for _, rate := range []float64{5, 6, 7} { // revs 4–6: checkpoint 5 queues
		within(t, 5*time.Second, "SetMaxRate", setRate(rate))
	}
	within(t, 5*time.Second, "GET /v1/problem", func() error {
		resp, err := http.Get(ts.URL + "/v1/problem")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /v1/problem: status %d", resp.StatusCode)
		}
		return nil
	})

	closed := make(chan struct{})
	go func() {
		_ = s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a checkpoint was held mid-marshal")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(20 * time.Second):
		t.Fatal("Close did not return after the checkpoint was released")
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := replay.Verify(dir, replay.Options{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, m := range rep.Mismatches {
			t.Errorf("mismatch: %s", m)
		}
		t.Fatal("journal with a late checkpoint did not verify")
	}
	if rep.CheckpointsVerified != 2 {
		t.Fatalf("CheckpointsVerified = %d, want 2 (Close wrote both due checkpoints)", rep.CheckpointsVerified)
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := rec.Problem.CommodityByName("c1")
	if rec.CheckpointRev != 5 || rec.Rev != 6 || c.MaxRate != 7 {
		t.Fatalf("recovered cpRev=%d rev=%d MaxRate=%v, want 5, 6, 7", rec.CheckpointRev, rec.Rev, c.MaxRate)
	}
}
