package loadgen

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/journal"
)

func loadScenario(t *testing.T, name string) *Scenario {
	t.Helper()
	data, err := os.ReadFile("../../examples/scenarios/" + name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// The acceptance bar: compiling the same scenario with the same seed
// must reproduce a byte-identical event stream, run after run.
func TestCompileIsByteIdentical(t *testing.T) {
	for _, name := range []string{"flashcrowd.json", "diurnal.json", "churn.json"} {
		t.Run(name, func(t *testing.T) {
			a, err := Compile(loadScenario(t, name), 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Compile(loadScenario(t, name), 1)
			if err != nil {
				t.Fatal(err)
			}
			ja, err := a.EventStreamJSONL()
			if err != nil {
				t.Fatal(err)
			}
			jb, err := b.EventStreamJSONL()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Fatal("same scenario+seed+scale compiled to different event streams")
			}
			ha, _ := a.EventStreamHash()
			hb, _ := b.EventStreamHash()
			if ha != hb || ha == "" {
				t.Fatalf("hash mismatch: %s vs %s", ha, hb)
			}

			// A different scale must change the stream (rates scale) but
			// not its shape (same ops on the same targets in each epoch).
			c, err := Compile(loadScenario(t, name), 2)
			if err != nil {
				t.Fatal(err)
			}
			jc, _ := c.EventStreamJSONL()
			if bytes.Equal(ja, jc) {
				t.Fatal("scale 2 compiled to the same stream as scale 1")
			}
			if len(a.Epochs) != len(c.Epochs) {
				t.Fatalf("scale changed the epoch count: %d vs %d", len(a.Epochs), len(c.Epochs))
			}
			for e := range a.Epochs {
				ma, mc := a.Epochs[e].Mutations, c.Epochs[e].Mutations
				if len(ma) != len(mc) {
					t.Fatalf("scale changed epoch %d's mutation count: %d vs %d", e, len(ma), len(mc))
				}
				for i := range ma {
					if ma[i].Op != mc[i].Op || ma[i].Target != mc[i].Target {
						t.Fatalf("scale changed epoch %d mutation %d: %s %s vs %s %s",
							e, i, ma[i].Op, ma[i].Target, mc[i].Op, mc[i].Target)
					}
				}
			}
		})
	}
}

// Structural invariants of a compiled script: one entry per epoch, an
// epoch's mutations in the order arrivals, one rate batch, faults,
// departures; arrivals precede any other mutation for the commodity,
// departures are final, the base problem starts empty, and each
// epoch's bookkeeping (Changes, Active, Offered) matches its mutations.
func TestCompileEventInvariants(t *testing.T) {
	c, err := Compile(loadScenario(t, "flashcrowd.json"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Base.Commodities) != 0 {
		t.Fatalf("base problem has %d commodities, want 0", len(c.Base.Commodities))
	}
	if len(c.Epochs) != c.Scenario.Epochs {
		t.Fatalf("%d compiled epochs, want %d", len(c.Epochs), c.Scenario.Epochs)
	}
	rank := map[string]int{
		journal.OpAddCommodity:    0,
		journal.OpSetRates:        1,
		journal.OpScaleCapacity:   2,
		journal.OpSetCapacity:     2,
		journal.OpScaleBandwidth:  2,
		journal.OpSetBandwidth:    2,
		journal.OpRemoveCommodity: 3,
	}
	arrived := map[string]bool{}
	departed := map[string]bool{}
	offered := map[string]float64{}
	for e, ep := range c.Epochs {
		changes, last, batches := 0, 0, 0
		for i := range ep.Mutations {
			m := &ep.Mutations[i]
			r, ok := rank[m.Op]
			if !ok {
				t.Fatalf("epoch %d: unexpected op %q", e, m.Op)
			}
			if r < last {
				t.Fatalf("epoch %d: %s after a later-ranked op", e, m.Op)
			}
			last = r
			changes++
			switch m.Op {
			case journal.OpAddCommodity:
				if arrived[m.Target] {
					t.Fatalf("%s arrived twice", m.Target)
				}
				var spec struct {
					MaxRate float64 `json:"maxRate"`
				}
				if err := json.Unmarshal(m.Payload, &spec); err != nil {
					t.Fatalf("%s arrival spec: %v", m.Target, err)
				}
				if spec.MaxRate <= 0 {
					t.Fatalf("%s arrival rate %g", m.Target, spec.MaxRate)
				}
				arrived[m.Target] = true
				offered[m.Target] = spec.MaxRate
			case journal.OpSetRates:
				batches++
				pl, err := journal.Decode[journal.RatesPayload](m)
				if err != nil {
					t.Fatal(err)
				}
				if len(pl.Rates) == 0 {
					t.Fatalf("epoch %d: empty rate batch", e)
				}
				for name, rate := range pl.Rates {
					if !arrived[name] || departed[name] {
						t.Fatalf("rate change for absent commodity %s", name)
					}
					if rate <= 0 {
						t.Fatalf("%s rate %g", name, rate)
					}
					offered[name] = rate
				}
				changes += len(pl.Rates) - 1
			case journal.OpRemoveCommodity:
				if !arrived[m.Target] || departed[m.Target] {
					t.Fatalf("departure of absent commodity %s", m.Target)
				}
				departed[m.Target] = true
				delete(offered, m.Target)
			}
		}
		if batches > 1 {
			t.Fatalf("epoch %d has %d rate batches, want at most 1", e, batches)
		}
		if ep.Changes != changes || ep.Active != len(offered) || ep.Offered != sum(offered) {
			t.Fatalf("epoch %d bookkeeping %d/%d/%g, mutations say %d/%d/%g",
				e, ep.Changes, ep.Active, ep.Offered, changes, len(offered), sum(offered))
		}
	}
	// flashcrowd: 3 baseline members arrive at 0, 5 crowd members in the
	// burst window, and every crowd member departs before the horizon.
	if n := len(arrived); n != 8 {
		t.Fatalf("%d commodities arrived, want 8", n)
	}
	if n := len(departed); n != 5 {
		t.Fatalf("%d commodities departed, want 5 (the crowd)", n)
	}
}

// Every compiled mutation must apply, in order, onto the base problem:
// the driver depends on the whole script validating against the
// substrate, for every bundled scenario.
func TestCompiledArrivalsAdmit(t *testing.T) {
	for _, name := range []string{"flashcrowd.json", "diurnal.json", "churn.json"} {
		t.Run(name, func(t *testing.T) {
			c, err := Compile(loadScenario(t, name), 1)
			if err != nil {
				t.Fatal(err)
			}
			p := c.Base.Clone()
			admitted := 0
			for e, ep := range c.Epochs {
				for i := range ep.Mutations {
					m := ep.Mutations[i]
					if err := journal.Apply(p, &m); err != nil {
						t.Fatalf("epoch %d: %s %s: %v", e, m.Op, m.Target, err)
					}
					if m.Op == journal.OpAddCommodity {
						admitted++
					}
				}
				if len(p.Commodities) != ep.Active {
					t.Fatalf("epoch %d: %d commodities after applying, bookkeeping says %d", e, len(p.Commodities), ep.Active)
				}
			}
			if admitted == 0 {
				t.Fatal("scenario compiled no arrivals")
			}
		})
	}
}
