package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestSolveWithRecorder runs both gradient step modes with an enabled
// recorder and checks that iteration events and metrics come out.
func TestSolveWithRecorder(t *testing.T) {
	for _, alg := range []Algorithm{Gradient, GradientAdaptive} {
		t.Run(string(alg), func(t *testing.T) {
			var buf bytes.Buffer
			rec := obs.NewRecorder(obs.NewRegistry(), obs.NewJSONLSink(&buf))
			res, err := Solve(figure1(t), Options{
				Algorithm: alg,
				MaxIters:  50,
				Recorder:  rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if res.Iterations != 50 {
				t.Fatalf("iterations = %d, want 50", res.Iterations)
			}
			if got := rec.Registry().Counter("streamopt_iterations_total", "").Value(); got != 50 {
				t.Fatalf("iterations counter = %d, want 50", got)
			}

			iterEvents := 0
			sc := bufio.NewScanner(&buf)
			for sc.Scan() {
				var e obs.Event
				if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
					t.Fatalf("invalid JSONL %q: %v", sc.Text(), err)
				}
				if e.Type == obs.EventIteration {
					iterEvents++
					if e.Alg == "" {
						t.Fatalf("iteration event missing alg: %+v", e)
					}
					if e.Feasible == nil {
						t.Fatalf("iteration event missing feasible: %+v", e)
					}
				}
			}
			if iterEvents != 50 {
				t.Fatalf("got %d iteration events, want 50", iterEvents)
			}
		})
	}
}

// TestSolveWithoutRecorderStillWorks pins the nil default.
func TestSolveWithoutRecorderStillWorks(t *testing.T) {
	if _, err := Solve(figure1(t), Options{MaxIters: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveExposesEngineFamiliesOnly: a solve through core.Solve
// registers the engine's set and nothing of the server's or the load
// driver's.
func TestSolveExposesEngineFamiliesOnly(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	if _, err := Solve(figure1(t), Options{Algorithm: GradientAdaptive, MaxIters: 20, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	var prom strings.Builder
	if err := rec.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(prom.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(rest)[0])
		}
	}
	want := "streamopt_iterations_total streamopt_utility streamopt_cost streamopt_feasible " +
		"streamopt_protocol_messages_total streamopt_adaptive_backtracks_total streamopt_eta"
	if got := strings.Join(families, " "); got != want {
		t.Fatalf("core.Solve exposes %s\nwant %s", got, want)
	}
}
