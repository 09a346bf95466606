// Admission-server quickstart: starts admissiond's engine in-process
// on a generated network, then drives it over real HTTP through a
// scripted day-in-the-life — rate bursts, a node failure, recovery,
// and a commodity departure — printing the evolving total utility and
// whether each re-solve warm-started. It finishes with the solver's
// introspection endpoints: /explain (why each commodity is admitted at
// its rate, and which resource binds it), /history (how utility and
// admission moved generation over generation), and /debug/spans (the
// full decision-lifecycle trace of the first mutation, from HTTP
// ingress through coalescing and the solve phases to snapshot publish,
// linked to the client's own W3C traceparent).
//
//	go run ./examples/server
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/randnet"
	"repro/internal/server"
)

const (
	seed    = 7
	timeout = 30 * time.Second
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	p, err := randnet.Generate(randnet.Config{
		Seed: seed, Nodes: 24, Commodities: 3,
		// Generous capacities so the system is admission-limited: rate
		// changes visibly move the optimum (same regime as E7).
		CapMin: 40, CapMax: 100, CostMin: 1, CostMax: 2,
		LambdaMin: 10, LambdaMax: 25,
	})
	if err != nil {
		return err
	}

	rec := obs.NewRecorder(obs.NewRegistry())
	s, err := server.New(p, server.Options{
		Debounce: 5 * time.Millisecond,
		Recorder: rec,
		Spans:    span.New(1024, rec),
	})
	if err != nil {
		return err
	}
	defer s.Close()
	h, err := s.Serve("127.0.0.1:0", rec.Registry())
	if err != nil {
		return err
	}
	defer h.Close()
	base := "http://" + h.Addr()
	fmt.Printf("admission server on %s (also serving /metrics)\n\n", base)

	// Readiness the way an orchestrator would check it: poll /readyz
	// until the first snapshot has published.
	if err := waitReady(base); err != nil {
		return err
	}
	snap := s.Snapshot()
	report("initial solve", snap)

	// The first mutation carries an explicit W3C traceparent, as an
	// instrumented client would; its decision lifecycle is read back
	// from /debug/spans at the end.
	const clientTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	clientTraceparent := "00-" + clientTrace + "-00f067aa0ba902b7-01"

	// The scripted stream of events. Each step is one or more API
	// calls; the debounce window coalesces multi-call steps into a
	// single re-solve.
	steps := []struct {
		what string
		do   func() error
	}{
		{"S1 rate burst (λ ×2)", func() error {
			return patchTraced(base+"/v1/commodities/S1", map[string]any{
				"maxRate": p.Commodities[0].MaxRate * 2,
			}, clientTraceparent)
		}},
		{"S2 + S3 drop to trickle", func() error {
			if err := patch(base+"/v1/commodities/S2", map[string]any{"maxRate": 2.0}); err != nil {
				return err
			}
			return patch(base+"/v1/commodities/S3", map[string]any{"maxRate": 2.0})
		}},
		{"busiest server fails to 25% capacity", func() error {
			name, err := busiestServer(base)
			if err != nil {
				return err
			}
			fmt.Printf("    (failing %s)\n", name)
			return post(base+"/v1/nodes/"+name+"/capacity", map[string]any{"scale": 0.25})
		}},
		{"failed server recovers (×4)", func() error {
			name, err := busiestServer(base)
			if err != nil {
				return err
			}
			return post(base+"/v1/nodes/"+name+"/capacity", map[string]any{"scale": 4.0})
		}},
		{"S3 departs", func() error {
			req, err := http.NewRequest(http.MethodDelete, base+"/v1/commodities/S3", nil)
			if err != nil {
				return err
			}
			return expect2xx(req)
		}},
	}

	for _, step := range steps {
		gen := s.Snapshot().Generation
		if err := step.do(); err != nil {
			return fmt.Errorf("%s: %w", step.what, err)
		}
		snap, err = s.WaitForGeneration(gen+1, timeout)
		if err != nil {
			return err
		}
		report(step.what, snap)
	}

	if err := printExplain(base); err != nil {
		return err
	}
	if err := printHistory(base); err != nil {
		return err
	}
	return printSpans(base, clientTrace)
}

// waitReady polls /readyz until the server reports its first published
// snapshot.
func waitReady(base string) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// printSpans fetches the rate burst's decision lifecycle from
// /debug/spans and prints it as an indented tree: the root decision
// span (parented to the client's traceparent), the ingress and
// coalescing children, the solve with its phase breakdown, and the
// publish that resolved it.
func printSpans(base, trace string) error {
	resp, err := http.Get(base + "/debug/spans?trace=" + trace)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Spans []struct {
			ID         string            `json:"span"`
			Parent     string            `json:"parent"`
			Name       string            `json:"name"`
			DurationMs float64           `json:"durationMs"`
			Attrs      map[string]string `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	fmt.Printf("\ndecision lifecycle for trace %s (GET /debug/spans?trace=...):\n", trace)
	ids := map[string]bool{}
	children := map[string][]int{}
	for i, sp := range out.Spans {
		ids[sp.ID] = true
		children[sp.Parent] = append(children[sp.Parent], i)
	}
	var walk func(id string, depth int)
	walk = func(id string, depth int) {
		idx := children[id]
		sort.Slice(idx, func(a, b int) bool { return out.Spans[idx[a]].Name < out.Spans[idx[b]].Name })
		for _, i := range idx {
			sp := out.Spans[i]
			extra := ""
			if lat := sp.Attrs["decision_latency_s"]; lat != "" {
				extra += fmt.Sprintf("  decision_latency_s=%s gen=%s", lat, sp.Attrs["generation"])
			}
			if n := sp.Attrs["mutations_coalesced"]; n != "" {
				extra += fmt.Sprintf("  mutations_coalesced=%s", n)
			}
			if st := sp.Attrs["start"]; st != "" {
				extra += fmt.Sprintf("  start=%s", st)
			}
			fmt.Printf("  %*s%-11s %8.2fms%s\n", 2*depth, "", sp.Name, sp.DurationMs, extra)
			walk(sp.ID, depth+1)
		}
	}
	// Roots are spans whose parent is outside the retained set (the
	// client's own span, or none).
	for parent := range children {
		if !ids[parent] {
			walk(parent, 0)
		}
	}
	return nil
}

// printExplain asks /explain why each surviving commodity is admitted
// at its rate, and what binds it.
func printExplain(base string) error {
	resp, err := http.Get(base + "/explain")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Explain []struct {
			Name     string  `json:"name"`
			Offered  float64 `json:"offered"`
			Admitted float64 `json:"admitted"`
			Gap      float64 `json:"gap"`
			Binding  []struct {
				Name        string  `json:"name"`
				Kind        string  `json:"kind"`
				Price       float64 `json:"price"`
				Utilization float64 `json:"utilization"`
			} `json:"binding"`
		} `json:"explain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	fmt.Println("\nbottleneck attribution (GET /explain):")
	for _, ce := range out.Explain {
		why := "admission limited only by its offered rate"
		if len(ce.Binding) > 0 {
			b := ce.Binding[0]
			why = fmt.Sprintf("bound by %s %s (shadow price %.4f, %.0f%% utilized)",
				b.Kind, b.Name, b.Price, 100*b.Utilization)
		}
		fmt.Printf("  %-6s admitted %6.2f of %6.2f  gap %+.4f  — %s\n",
			ce.Name, ce.Admitted, ce.Offered, ce.Gap, why)
	}
	return nil
}

// printHistory shows how the operating point moved across the script's
// generations.
func printHistory(base string) error {
	resp, err := http.Get(base + "/history")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out struct {
		Generations []struct {
			Generation   int64   `json:"generation"`
			Warm         bool    `json:"warm"`
			Utility      float64 `json:"utility"`
			DeltaUtility float64 `json:"deltaUtility"`
		} `json:"generations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	fmt.Println("\ngeneration history (GET /history):")
	for _, g := range out.Generations {
		start := "cold"
		if g.Warm {
			start = "warm"
		}
		fmt.Printf("  gen %2d  utility %8.3f  Δ %+8.3f  (%s)\n",
			g.Generation, g.Utility, g.DeltaUtility, start)
	}
	return nil
}

// report prints one snapshot line: the service's evolving operating
// point.
func report(what string, snap *server.Snapshot) {
	start := "cold"
	if snap.Warm {
		start = "warm"
	}
	fmt.Printf("gen %2d  %-38s  utility %8.3f  (%s, %d iters, %.1fms)\n",
		snap.Generation, what, snap.Utility, start, snap.Iterations, 1000*snap.SolveSeconds)
	for _, c := range snap.Commodities {
		fmt.Printf("         %-6s offered %7.2f  admitted %7.2f\n", c.Name, c.Offered, c.Admitted)
	}
}

// busiestServer asks /v1/usage for the most utilized server.
func busiestServer(base string) (string, error) {
	resp, err := http.Get(base + "/v1/usage")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Usage []struct {
			Name        string  `json:"name"`
			Kind        string  `json:"kind"`
			Utilization float64 `json:"utilization"`
		} `json:"usage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	best, bestU := "", -1.0
	for _, u := range out.Usage {
		if u.Kind == "server" && u.Utilization > bestU {
			best, bestU = u.Name, u.Utilization
		}
	}
	if best == "" {
		return "", fmt.Errorf("no server usage reported")
	}
	return best, nil
}

func patch(url string, body map[string]any) error {
	return patchTraced(url, body, "")
}

func patchTraced(url string, body map[string]any, traceparent string) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	return expect2xx(req)
}

func post(url string, body map[string]any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	return expect2xx(req)
}

func expect2xx(req *http.Request) error {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, buf.String())
	}
	return nil
}
