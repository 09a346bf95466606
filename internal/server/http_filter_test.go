package server

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// TestQueryParamValidation is the table test for the strict query-
// parameter contract: malformed or unknown filters on GET /history and
// GET /debug/spans answer 400, never a silently unfiltered 200.
func TestQueryParamValidation(t *testing.T) {
	opts := testOptions(obs.NewRecorder(nil))
	opts.Spans = span.New(64, nil)
	s, ts := start(t, opts)
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	base := ts.URL

	cases := []struct {
		name string
		url  string
		want int
	}{
		{"history plain", "/history", http.StatusOK},
		{"history since", "/history?since=1", http.StatusOK},
		{"history limit", "/history?limit=5", http.StatusOK},
		{"history both", "/history?since=1&limit=2", http.StatusOK},
		{"history limit zero", "/history?limit=0", http.StatusOK},
		{"history since junk", "/history?since=banana", http.StatusBadRequest},
		{"history since negative", "/history?since=-3", http.StatusBadRequest},
		{"history limit junk", "/history?limit=1.5", http.StatusBadRequest},
		{"history unknown param", "/history?sinse=40", http.StatusBadRequest},
		{"spans plain", "/debug/spans", http.StatusOK},
		{"spans name", "/debug/spans?name=solve", http.StatusOK},
		{"spans min_ms", "/debug/spans?min_ms=0.5", http.StatusOK},
		{"spans trace valid", "/debug/spans?trace=0123456789abcdef0123456789abcdef", http.StatusOK},
		{"spans trace short", "/debug/spans?trace=abc123", http.StatusBadRequest},
		{"spans trace uppercase", "/debug/spans?trace=0123456789ABCDEF0123456789ABCDEF", http.StatusBadRequest},
		{"spans min_ms junk", "/debug/spans?min_ms=fast", http.StatusBadRequest},
		{"spans min_ms negative", "/debug/spans?min_ms=-1", http.StatusBadRequest},
		{"spans unknown param", "/debug/spans?comodity=c1", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(base + tc.url)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("GET %s = %d, want %d (body: %s)", tc.url, resp.StatusCode, tc.want, body)
			}
			if tc.want == http.StatusBadRequest {
				var e struct {
					Error struct {
						Code    string `json:"code"`
						Message string `json:"message"`
					} `json:"error"`
				}
				if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" {
					t.Fatalf("400 body lacks structured error envelope: %s", body)
				}
				if e.Error.Code != "invalid_argument" {
					t.Fatalf("400 code = %q, want invalid_argument (body: %s)", e.Error.Code, body)
				}
			}
		})
	}
}

// TestHistoryFilters drives a few generations and checks since/limit
// semantics.
func TestHistoryFilters(t *testing.T) {
	s, ts := start(t, testOptions(obs.NewRecorder(nil)))

	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	gen := first.Generation
	for i := 0; i < 3; i++ {
		if _, err := s.SetMaxRate("c1", 4+float64(i)); err != nil {
			t.Fatal(err)
		}
		snap, err := s.WaitForGeneration(gen+1, waitBudget)
		if err != nil {
			t.Fatal(err)
		}
		gen = snap.Generation
	}

	get := func(url string) []HistoryEntry {
		t.Helper()
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		var out struct {
			Generations []HistoryEntry `json:"generations"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Generations
	}

	all := get("/history")
	if len(all) < 4 {
		t.Fatalf("retained %d generations, want >= 4", len(all))
	}
	since := get("/history?since=3")
	for _, e := range since {
		if e.Generation < 3 {
			t.Fatalf("since=3 returned generation %d", e.Generation)
		}
	}
	limited := get("/history?limit=2")
	if len(limited) != 2 {
		t.Fatalf("limit=2 returned %d entries", len(limited))
	}
	// limit keeps the newest tail.
	if limited[len(limited)-1].Generation != all[len(all)-1].Generation {
		t.Fatal("limit dropped the newest generation")
	}
	if got := get("/history?limit=0"); len(got) != 0 {
		t.Fatalf("limit=0 returned %d entries", len(got))
	}
}
