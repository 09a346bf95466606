package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/journal"
)

// TestRoutesApplyTheirMutation holds the write path to its one
// definition. For each of the nine ops: issuing it through its REST
// route must leave /v1/problem byte-equal to journal.Apply of the op's
// constructor on a clone of the prior problem. Which shards a mutation
// changes is the coordinator's to find (shard's
// TestOnlyChangedShardsRebind).
func TestRoutesApplyTheirMutation(t *testing.T) {
	opts := testOptions(nil)
	// No token is ever sent: the solver stays parked, and only the write
	// path runs.
	opts.SolveGate = make(chan struct{})
	s, err := New(toyProblem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s.Handler(nil))
	t.Cleanup(ts.Close)

	const c2 = `{"name":"c2","source":"a","sink":"t2","maxRate":1,"utility":{"type":"linear","slope":1},` +
		`"edges":[{"from":"a","to":"b","beta":1,"cost":1},{"from":"b","to":"t2","beta":1,"cost":1}]}`
	const logUtility = `{"type":"log","weight":2}`
	cases := []struct {
		method, path, body string
		status             int
		m                  journal.Mutation
	}{
		{"POST", "/v1/commodities", c2, 201, journal.AddCommodity([]byte(c2))},
		{"PATCH", "/v1/commodities/c1", `{"maxRate":2.5}`, 200, journal.SetRate("c1", 2.5)},
		{"POST", "/v1/rates", `{"rates":{"c1":3,"c2":0.75}}`, 200, journal.SetRates(map[string]float64{"c1": 3, "c2": 0.75})},
		{"PATCH", "/v1/commodities/c1", `{"utility":` + logUtility + `}`, 200, journal.SetUtility("c1", []byte(logUtility))},
		{"POST", "/v1/nodes/a/capacity", `{"capacity":12.5}`, 200, journal.SetCapacity("a", 12.5)},
		{"POST", "/v1/nodes/b/capacity", `{"scale":0.25}`, 200, journal.ScaleCapacity("b", 0.25)},
		{"POST", "/v1/links/a/b/bandwidth", `{"bandwidth":7}`, 200, journal.SetBandwidth("a", "b", 7)},
		{"POST", "/v1/links/a/b/bandwidth", `{"scale":0.5}`, 200, journal.ScaleBandwidth("a", "b", 0.5)},
		{"DELETE", "/v1/commodities/c2", ``, 200, journal.RemoveCommodity("c2")},
	}
	for _, tc := range cases {
		t.Run(tc.m.Op, func(t *testing.T) {
			s.mu.Lock()
			want := s.problem.Clone()
			rev := s.rev
			s.mu.Unlock()
			if err := journal.Apply(want, &tc.m); err != nil {
				t.Fatal(err)
			}
			wantJSON, err := want.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}

			var body any
			if tc.body != "" {
				body = json.RawMessage(tc.body)
			}
			resp, reply := doReq(t, tc.method, ts.URL+tc.path, body)
			if resp.StatusCode != tc.status {
				t.Fatalf("%s %s = %d: %s", tc.method, tc.path, resp.StatusCode, reply)
			}
			var out struct {
				Rev int64 `json:"rev"`
			}
			if err := json.Unmarshal(reply, &out); err != nil || out.Rev != rev+1 {
				t.Fatalf("reply %s (%v), want rev %d", reply, err, rev+1)
			}
			resp, got := doReq(t, http.MethodGet, ts.URL+"/v1/problem", nil)
			if resp.StatusCode != 200 {
				t.Fatalf("GET /v1/problem = %d", resp.StatusCode)
			}
			if !bytes.Equal(got, wantJSON) {
				t.Fatalf("problem after the route differs from journal.Apply on the prior problem:\n%s\n%s", got, wantJSON)
			}
		})
	}
}

// TestPatchIsAllOrNothing: a PATCH carrying a valid rate and a utility
// the server rejects must change nothing — not commit the rate, bump
// the revision and then answer 4xx.
func TestPatchIsAllOrNothing(t *testing.T) {
	s, ts := startServer(t, nil)
	_, before := doReq(t, http.MethodGet, ts.URL+"/v1/problem", nil)
	rev := s.Rev()

	resp, body := doReq(t, http.MethodPatch, ts.URL+"/v1/commodities/c1",
		json.RawMessage(`{"maxRate":4,"utility":{"type":"bogus"}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PATCH with a bogus utility = %d: %s", resp.StatusCode, body)
	}
	if got := s.Rev(); got != rev {
		t.Fatalf("rejected PATCH moved the revision %d → %d", rev, got)
	}
	if _, after := doReq(t, http.MethodGet, ts.URL+"/v1/problem", nil); !bytes.Equal(before, after) {
		t.Fatalf("rejected PATCH changed the problem:\n%s\n%s", before, after)
	}

	// Both valid: one request, two revisions, both applied.
	resp, body = doReq(t, http.MethodPatch, ts.URL+"/v1/commodities/c1",
		json.RawMessage(`{"maxRate":4,"utility":{"type":"log","weight":2}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH rate+utility = %d: %s", resp.StatusCode, body)
	}
	if got := s.Rev(); got != rev+2 {
		t.Fatalf("rev = %d after a two-field PATCH, want %d", got, rev+2)
	}
}
