package loadgen

import (
	"bytes"
	"os"
	"testing"
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
			// not its shape (same event count, same kinds in order).
			c, err := Compile(loadScenario(t, name), 2)
			if err != nil {
				t.Fatal(err)
			}
			jc, _ := c.EventStreamJSONL()
			if bytes.Equal(ja, jc) {
				t.Fatal("scale 2 compiled to the same stream as scale 1")
			}
			if len(a.Events) != len(c.Events) {
				t.Fatalf("scale changed event count: %d vs %d", len(a.Events), len(c.Events))
			}
			for i := range a.Events {
				if a.Events[i].Kind != c.Events[i].Kind || a.Events[i].Commodity != c.Events[i].Commodity {
					t.Fatalf("scale changed event shape at %d", i)
				}
			}
		})
	}
}

// Structural invariants of a compiled stream: ordered by (epoch, seq),
// arrivals precede any other event for the commodity, departures are
// final, and the base problem starts empty.
func TestCompileEventInvariants(t *testing.T) {
	c, err := Compile(loadScenario(t, "flashcrowd.json"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Base.Commodities) != 0 {
		t.Fatalf("base problem has %d commodities, want 0", len(c.Base.Commodities))
	}
	arrived := map[string]bool{}
	departed := map[string]bool{}
	for i, e := range c.Events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if i > 0 && e.Epoch < c.Events[i-1].Epoch {
			t.Fatalf("event %d epoch %d precedes %d", i, e.Epoch, c.Events[i-1].Epoch)
		}
		if e.Epoch < 0 || e.Epoch >= c.Scenario.Epochs {
			t.Fatalf("event %d epoch %d outside horizon", i, e.Epoch)
		}
		switch e.Kind {
		case "arrive":
			if arrived[e.Commodity] {
				t.Fatalf("%s arrived twice", e.Commodity)
			}
			if len(e.Spec) == 0 {
				t.Fatalf("%s arrival carries no spec", e.Commodity)
			}
			if e.Rate <= 0 {
				t.Fatalf("%s arrival rate %g", e.Commodity, e.Rate)
			}
			arrived[e.Commodity] = true
		case "rate":
			if !arrived[e.Commodity] || departed[e.Commodity] {
				t.Fatalf("rate event for absent commodity %s", e.Commodity)
			}
			if e.Rate <= 0 {
				t.Fatalf("%s rate %g", e.Commodity, e.Rate)
			}
		case "depart":
			if !arrived[e.Commodity] || departed[e.Commodity] {
				t.Fatalf("depart event for absent commodity %s", e.Commodity)
			}
			departed[e.Commodity] = true
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

// Arrival specs must admit cleanly onto the base problem — the driver
// depends on every compiled spec validating against the substrate.
func TestCompiledArrivalsAdmit(t *testing.T) {
	c, err := Compile(loadScenario(t, "churn.json"), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Base.Clone()
	admitted := 0
	for _, e := range c.Events {
		switch e.Kind {
		case "arrive":
			if _, err := p.AddCommodityFromJSON(e.Spec); err != nil {
				t.Fatalf("arrival %s failed to admit: %v", e.Commodity, err)
			}
			admitted++
		case "depart":
			if !p.RemoveCommodity(e.Commodity) {
				t.Fatalf("depart %s: not present", e.Commodity)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("churn scenario compiled no arrivals")
	}
}
