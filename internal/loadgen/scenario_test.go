package loadgen

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every bundled scenario must parse, validate, compile, and re-marshal
// stably (indented JSON ∘ Parse ∘ indented JSON is a fixed point).
func TestExampleScenariosRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected at least 2 bundled scenarios, found %d", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := ParseScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			first, err := json.MarshalIndent(sc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			sc2, err := ParseScenario(first)
			if err != nil {
				t.Fatalf("re-parse of marshaled form: %v", err)
			}
			second, err := json.MarshalIndent(sc2, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatal("marshal is not a fixed point of parse∘marshal")
			}
			if _, err := Compile(sc, 1); err != nil {
				t.Fatalf("compile: %v", err)
			}
		})
	}
}

// Invalid scenarios must fail with messages that name the offending
// element and say what to change.
func TestScenarioValidationErrors(t *testing.T) {
	base := `{
		"name": "t", "seed": 1, "epochs": 10,
		"cohorts": [{"name": "a", "count": 2,
			"arrival": {"type": "immediate"},
			"rate": {"type": "constant", "level": 5}}]
	}`
	cases := []struct {
		name, json, want string
	}{
		{"unknown field", `{"name": "t", "epochs": 10, "cohrts": []}`, "cohrts"},
		{"no name", `{"epochs": 10, "cohorts": [{"name": "a", "count": 1, "arrival": {"type": "immediate"}, "rate": {"type": "constant", "level": 1}}]}`, "needs a name"},
		{"no epochs", `{"name": "t", "cohorts": [{"name": "a", "count": 1, "arrival": {"type": "immediate"}, "rate": {"type": "constant", "level": 1}}]}`, "epochs"},
		{"no cohorts", `{"name": "t", "epochs": 5}`, "at least one cohort"},
		{"bad arrival", `{"name": "t", "epochs": 5, "cohorts": [{"name": "a", "count": 1, "arrival": {"type": "warp"}, "rate": {"type": "constant", "level": 1}}]}`, "warp"},
		{"bad rate type", `{"name": "t", "epochs": 5, "cohorts": [{"name": "a", "count": 1, "arrival": {"type": "immediate"}, "rate": {"type": "quadratic"}}]}`, "quadratic"},
		{"undefined class", `{"name": "t", "epochs": 5, "cohorts": [{"name": "a", "count": 1, "class": "gold", "arrival": {"type": "immediate"}, "rate": {"type": "constant", "level": 1}}]}`, `undefined class "gold"`},
		{"dup cohort", `{"name": "t", "epochs": 5, "cohorts": [
			{"name": "a", "count": 1, "arrival": {"type": "immediate"}, "rate": {"type": "constant", "level": 1}},
			{"name": "a", "count": 1, "arrival": {"type": "immediate"}, "rate": {"type": "constant", "level": 1}}]}`, "duplicate cohort"},
		{"too many members", `{"name": "t", "epochs": 5, "network": {"nodes": 6, "layers": 3},
			"cohorts": [{"name": "a", "count": 5, "arrival": {"type": "immediate"}, "rate": {"type": "constant", "level": 1}}]}`, "raise network.nodes"},
		{"fault out of range", `{"name": "t", "epochs": 5,
			"cohorts": [{"name": "a", "count": 1, "arrival": {"type": "immediate"}, "rate": {"type": "constant", "level": 1}}],
			"faults": [{"at": 9, "kind": "scale_capacity", "node": "n00", "factor": 0.5}]}`, "outside"},
		{"fault bad kind", `{"name": "t", "epochs": 5,
			"cohorts": [{"name": "a", "count": 1, "arrival": {"type": "immediate"}, "rate": {"type": "constant", "level": 1}}],
			"faults": [{"at": 1, "kind": "meteor"}]}`, "meteor"},
	}
	if _, err := ParseScenario([]byte(base)); err != nil {
		t.Fatalf("base scenario should be valid, got %v", err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(c.json))
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
