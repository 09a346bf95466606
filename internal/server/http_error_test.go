package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestErrorEnvelope table-tests the uniform {"error": {code, message}}
// envelope and the 400/404/409 mapping across every mutation endpoint:
// malformed input → 400 invalid_argument, unknown targets → 404
// not_found, duplicate names and claimed resources → 409 conflict.
func TestErrorEnvelope(t *testing.T) {
	s, ts := start(t, testOptions(nil))
	base := ts.URL

	// toyProblem has commodity c1 (a→t1), servers a/b, sinks t1/t2. A
	// second commodity is named to look like an error message: the status
	// must come from the error's class, never from its text.
	if _, err := s.AddCommodityJSON([]byte(`{"name":"unknown-7","source":"a","sink":"t2","maxRate":1,"utility":{"type":"linear","slope":1},"edges":[{"from":"a","to":"b","beta":1,"cost":1},{"from":"b","to":"t2","beta":1,"cost":1}]}`)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		method   string
		url      string
		body     string
		want     int
		wantCode string
	}{
		{"add malformed json", "POST", "/v1/commodities", `{"name":`, 400, "invalid_argument"},
		{"add unknown source", "POST", "/v1/commodities",
			`{"name":"cx","source":"ghost","sink":"t2","maxRate":1,"utility":{"type":"linear","slope":1},"edges":[]}`,
			404, "not_found"},
		{"add duplicate name", "POST", "/v1/commodities",
			`{"name":"c1","source":"a","sink":"t2","maxRate":1,"utility":{"type":"linear","slope":1},"edges":[{"from":"a","to":"b","beta":1,"cost":1},{"from":"b","to":"t2","beta":1,"cost":1}]}`,
			409, "conflict"},
		{"add claimed sink", "POST", "/v1/commodities",
			`{"name":"cx","source":"a","sink":"t1","maxRate":1,"utility":{"type":"linear","slope":1},"edges":[{"from":"a","to":"b","beta":1,"cost":1},{"from":"b","to":"t1","beta":1,"cost":1}]}`,
			409, "conflict"},
		{"delete unknown commodity", "DELETE", "/v1/commodities/ghost", "", 404, "not_found"},
		{"patch unknown commodity", "PATCH", "/v1/commodities/ghost", `{"maxRate":2}`, 404, "not_found"},
		{"patch empty body", "PATCH", "/v1/commodities/c1", `{}`, 400, "invalid_argument"},
		{"patch negative rate", "PATCH", "/v1/commodities/c1", `{"maxRate":-3}`, 400, "invalid_argument"},
		{"rates unknown commodity", "POST", "/v1/rates", `{"rates":{"ghost":2}}`, 404, "not_found"},
		{"rates empty batch", "POST", "/v1/rates", `{"rates":{}}`, 400, "invalid_argument"},
		{"capacity unknown node", "POST", "/v1/nodes/ghost/capacity", `{"capacity":5}`, 404, "not_found"},
		{"capacity no value", "POST", "/v1/nodes/a/capacity", `{}`, 400, "invalid_argument"},
		{"capacity both values", "POST", "/v1/nodes/a/capacity", `{"capacity":5,"scale":2}`, 400, "invalid_argument"},
		{"bandwidth unknown link", "POST", "/v1/links/a/ghost/bandwidth", `{"bandwidth":5}`, 404, "not_found"},
		{"capacity route given bandwidth", "POST", "/v1/nodes/a/capacity", `{"bandwidth":5}`, 400, "invalid_argument"},
		{"capacity route given both values", "POST", "/v1/nodes/a/capacity", `{"capacity":5,"bandwidth":7}`, 400, "invalid_argument"},
		{"bandwidth route given capacity", "POST", "/v1/links/a/b/bandwidth", `{"capacity":7}`, 400, "invalid_argument"},
		{"patch unknown utility type", "PATCH", "/v1/commodities/c1", `{"utility":{"type":"bogus"}}`, 400, "invalid_argument"},
		{"patch negative rate, unknown in the name", "PATCH", "/v1/commodities/unknown-7", `{"maxRate":-3}`, 400, "invalid_argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code, message := errorEnvelope(t, tc.method, base+tc.url, tc.body)
			if status != tc.want {
				t.Fatalf("%s %s = %d (%s), want %d", tc.method, tc.url, status, message, tc.want)
			}
			if code != tc.wantCode {
				t.Fatalf("%s %s code = %q, want %q (message: %s)", tc.method, tc.url, code, tc.wantCode, message)
			}
			if message == "" {
				t.Fatalf("%s %s: envelope lacks a message", tc.method, tc.url)
			}
		})
	}
}

// TestOversizedBodyNamesTheLimit: a body past maxBodyBytes is refused
// with 400 invalid_argument and a message that names the limit, not
// read up to the limit and reported as truncated JSON.
func TestOversizedBodyNamesTheLimit(t *testing.T) {
	_, ts := start(t, testOptions(nil))
	body := `{"maxRate":1,"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	status, code, message := errorEnvelope(t, "PATCH", ts.URL+"/v1/commodities/c1", body)
	if status != http.StatusBadRequest || code != "invalid_argument" {
		t.Fatalf("oversized body = %d %q (%s), want 400 invalid_argument", status, code, message)
	}
	if limit := strconv.Itoa(maxBodyBytes); !strings.Contains(message, limit) {
		t.Fatalf("message %q does not name the %s-byte limit", message, limit)
	}
}

// errorEnvelope sends one request and decodes the error envelope of its
// answer.
func errorEnvelope(t *testing.T, method, url, body string) (status int, code, message string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("%s %s: body is not a JSON error envelope: %v", method, url, err)
	}
	return resp.StatusCode, e.Error.Code, e.Error.Message
}
