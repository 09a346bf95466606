package span

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

type spansPage struct {
	Capacity int    `json:"capacity"`
	Retained int    `json:"retained"`
	Started  uint64 `json:"started"`
	Finished uint64 `json:"finished"`
	Spans    []Span `json:"spans"`
}

func getSpans(t *testing.T, h http.Handler, url string) (int, spansPage) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var page spansPage
	if rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return rr.Code, page
}

func TestHandlerNilTracer(t *testing.T) {
	code, _ := getSpans(t, Handler(nil), "/debug/spans")
	if code != http.StatusNotFound {
		t.Errorf("nil tracer status = %d, want 404", code)
	}
}

func TestHandlerFilters(t *testing.T) {
	tr := New(16, nil)
	a := tr.Start("decision", Context{})
	a.SetAttr("target", "S1")
	a.End()
	b := tr.StartAt("solve", a.Context(), time.Now().Add(-time.Second))
	b.End()
	other := tr.Start("decision", Context{})
	other.End()

	mux := http.NewServeMux()
	Attach(mux, tr)

	code, page := getSpans(t, mux, "/debug/spans")
	if code != http.StatusOK || page.Retained != 3 || len(page.Spans) != 3 {
		t.Fatalf("unfiltered: code=%d page=%+v", code, page)
	}
	if page.Capacity != 16 || page.Started != 3 || page.Finished != 3 {
		t.Errorf("page stats = %+v", page)
	}

	if _, p := getSpans(t, mux, "/debug/spans?trace="+a.Context().TraceHex()); len(p.Spans) != 2 {
		t.Errorf("trace filter returned %d spans, want 2", len(p.Spans))
	}
	if _, p := getSpans(t, mux, "/debug/spans?name=solve"); len(p.Spans) != 1 {
		t.Errorf("name filter returned %d spans, want 1", len(p.Spans))
	}
	if _, p := getSpans(t, mux, "/debug/spans?target=S1"); len(p.Spans) != 1 {
		t.Errorf("target filter returned %d spans, want 1", len(p.Spans))
	}
	if _, p := getSpans(t, mux, "/debug/spans?min_ms=500"); len(p.Spans) != 1 {
		t.Errorf("min_ms filter returned %d spans, want 1", len(p.Spans))
	}

	if code, _ := getSpans(t, mux, "/debug/spans?commodity=S1"); code != http.StatusBadRequest {
		t.Errorf("unknown commodity parameter status = %d, want 400", code)
	}
	if code, _ := getSpans(t, mux, "/debug/spans?min_ms=banana"); code != http.StatusBadRequest {
		t.Errorf("bad min_ms status = %d, want 400", code)
	}
	if code, _ := getSpans(t, mux, "/debug/spans?min_ms=-1"); code != http.StatusBadRequest {
		t.Errorf("negative min_ms status = %d, want 400", code)
	}
}
