package shard_test

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/gradient"
	"repro/internal/randnet"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/transform"
)

// TestUnexpectedWarmStartFallbackIsCaptured: a warm start that fails
// for a reason other than a changed topology still recovers by starting
// cold, and the server hears of it from the coordinator and captures a
// cold_fallback bundle — at four shards, where the failure happens
// inside a shard runner. (It lives here rather than in the server
// package because the failure has to be forced inside this one.) The
// decision that reaches the warm start is a departure and a re-arrival
// on the same edges at another processing cost, coalesced into one
// solve: a rate change no longer rebinds anything, while this rebuilds
// the owner shard and, the member edge sets being equal, rebinds its
// routing.
func TestUnexpectedWarmStartFallbackIsCaptured(t *testing.T) {
	p, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 24, Commodities: 4})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20 * time.Second
	var logged []string            // solver goroutine only, read after Close
	gate := make(chan struct{}, 2) // one token per solve: the boot, then both mutations at once
	gate <- struct{}{}
	s, err := server.New(p, server.Options{
		Shards:        4,
		PlacementSalt: 7,
		MaxIters:      500,
		Debounce:      2 * time.Millisecond,
		SolveGate:     gate,
		CaptureDir:    filepath.Join(t.TempDir(), "bundles"),
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "unexpectedly") {
				logged = append(logged, format)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	first, err := s.WaitForGeneration(1, budget)
	if err != nil {
		t.Fatal(err)
	}

	// The solver is idle; the mutation's wake-up orders this write
	// before the rebind that reads it.
	boom := errors.New("injected warm-start failure")
	restore := shard.StubWarmStart(func(*transform.Extended, *flow.Routing, gradient.Config) (*gradient.Engine, error) {
		return nil, boom
	})
	t.Cleanup(func() {
		_ = s.Close() // before the solver's hook changes under it
		restore()
	})
	// The last commodity comes back where it was, last of its shard.
	name := p.Commodities[len(p.Commodities)-1].Name
	spec, err := p.MarshalCommodityJSON(name)
	if err != nil {
		t.Fatal(err)
	}
	var arrival map[string]any
	if err := json.Unmarshal(spec, &arrival); err != nil {
		t.Fatal(err)
	}
	edge := arrival["edges"].([]any)[0].(map[string]any)
	edge["cost"] = 1.5 * edge["cost"].(float64)
	if spec, err = json.Marshal(arrival); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveCommodity(name); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddCommodityJSON(spec); err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	snap, err := s.WaitForGeneration(first.Generation+1, budget)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Warm {
		t.Error("snapshot reports a warm start although the rebind failed")
	}
	if snap.Utility <= 0 {
		t.Errorf("cold fallback published utility %v", snap.Utility)
	}

	deadline := time.Now().Add(budget)
	for {
		bundles, err := s.Bundles()
		if err != nil {
			t.Fatal(err)
		}
		if len(bundles) > 0 {
			if b := bundles[0]; b.Reason != "cold_fallback" || !strings.Contains(b.Detail, boom.Error()) {
				t.Fatalf("bundle = %q (%s), want cold_fallback naming the injected error", b.Reason, b.Detail)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cold_fallback bundle appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 {
		t.Errorf("unexpected-fallback log lines = %d, want 1 (only the owner shard rebinds)", len(logged))
	}
}
