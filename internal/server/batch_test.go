package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// One SetMaxRates call must cost one revision (one clone, one solver
// wake) no matter how many commodities it touches, and the next
// generation must reflect every rate in the batch.
func TestSetMaxRatesBatchIsOneMutation(t *testing.T) {
	s, err := New(toyProblem(t), testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.WaitForGeneration(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	revBefore := s.Rev()
	rev, err := s.SetMaxRates(map[string]float64{"c1": 3.5})
	if err != nil {
		t.Fatal(err)
	}
	if rev != revBefore+1 {
		t.Fatalf("rev = %d, want %d (one bump per batch)", rev, revBefore+1)
	}
	snap, err := s.WaitForGeneration(2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Commodities) != 1 || snap.Commodities[0].Offered != 3.5 {
		t.Fatalf("offered = %+v, want c1 at 3.5", snap.Commodities)
	}
}

// A batch containing any invalid entry must reject atomically: no rate
// in the batch may be applied.
func TestSetMaxRatesBatchIsAtomic(t *testing.T) {
	s, err := New(toyProblem(t), testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.WaitForGeneration(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	revBefore := s.Rev()
	if _, err := s.SetMaxRates(map[string]float64{"c1": 3, "ghost": 4}); err == nil {
		t.Fatal("batch with unknown commodity should fail")
	} else if !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("error should name the bad commodity, got %v", err)
	}
	if _, err := s.SetMaxRates(map[string]float64{"c1": -1}); err == nil {
		t.Fatal("batch with invalid rate should fail")
	}
	if _, err := s.SetMaxRates(nil); err == nil {
		t.Fatal("empty batch should fail")
	}
	if got := s.Rev(); got != revBefore {
		t.Fatalf("rev moved to %d on failed batches, want %d", got, revBefore)
	}
	data, err := s.ProblemJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"maxRate":8`) {
		t.Fatal("failed batch leaked a rate change into the problem")
	}
}

func TestBatchRatesHTTP(t *testing.T) {
	s, err := New(toyProblem(t), testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.WaitForGeneration(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(nil))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/rates", "application/json",
		bytes.NewReader([]byte(`{"rates": {"c1": 5.25}}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Rev     int64 `json:"rev"`
		Applied int   `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Applied != 1 || out.Rev == 0 {
		t.Fatalf("response = %+v, want applied=1 and a rev", out)
	}
	snap, err := s.WaitForGeneration(2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Commodities[0].Offered != 5.25 {
		t.Fatalf("offered = %g, want 5.25", snap.Commodities[0].Offered)
	}

	// Unknown commodity → 404, invalid body → 400.
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"rates": {"ghost": 1}}`, http.StatusNotFound},
		{`{"rates": {}}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/rates", "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("POST %q: status = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}
