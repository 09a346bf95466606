package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/utility"
)

// toyProblem builds a two-server chain with one active commodity and a
// spare sink (t2) left free so tests can admit a second commodity at
// runtime:
//
//	a ──► b ──► t1   (c1: a→t1, λ=8)
//	      └───► t2   (free)
func toyProblem(t *testing.T) *stream.Problem {
	t.Helper()
	net := stream.NewNetwork()
	a, err := net.AddServer("a", 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.AddServer("b", 10)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := net.AddSink("t1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := net.AddSink("t2")
	if err != nil {
		t.Fatal(err)
	}
	ab, err := net.AddLink(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	bt1, err := net.AddLink(b, t1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddLink(b, t2, 10); err != nil {
		t.Fatal(err)
	}
	p := stream.NewProblem(net)
	c1, err := p.AddCommodity("c1", a, t1, 8, utility.Linear{Slope: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetEdge(c1, ab, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetEdge(c1, bt1, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func testOptions(rec *obs.Recorder) Options {
	return Options{
		MaxIters:      1500,
		StationaryTol: 1e-3,
		Debounce:      2 * time.Millisecond,
		Recorder:      rec,
		Logf:          func(string, ...any) {},
	}
}

const waitBudget = 20 * time.Second

// startServer spins up the service plus an httptest front end.
func startServer(t *testing.T, rec *obs.Recorder) (*Server, *httptest.Server) {
	t.Helper()
	return startServerWith(t, rec, testOptions(rec))
}

func startServerWith(t *testing.T, rec *obs.Recorder, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(toyProblem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	var reg *obs.Registry
	if rec != nil {
		reg = rec.Registry()
	}
	ts := httptest.NewServer(s.Handler(reg))
	t.Cleanup(ts.Close)
	return s, ts
}

func doReq(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestRateUpdateProducesNewWarmGeneration is the headline end-to-end
// flow: solve, PATCH a commodity's offered rate over HTTP, and observe
// a new snapshot generation with a changed admitted rate, solved from a
// warm start, with the obs counters distinguishing warm from cold.
func TestRateUpdateProducesNewWarmGeneration(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	s, ts := startServer(t, rec)

	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if first.Warm {
		t.Fatal("first solve reported warm; must be cold")
	}
	if len(first.Commodities) != 1 || first.Commodities[0].Name != "c1" {
		t.Fatalf("unexpected commodities in snapshot: %+v", first.Commodities)
	}
	before := first.Commodities[0].Admitted
	if before <= 0 {
		t.Fatalf("nothing admitted on an uncongested toy network: %g", before)
	}

	// Halve the offered rate: the admitted rate must follow it down.
	resp, body := doReq(t, http.MethodPatch, ts.URL+"/v1/commodities/c1",
		map[string]any{"maxRate": 2.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH status %d: %s", resp.StatusCode, body)
	}

	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Warm {
		t.Fatal("rate-only update should warm-start")
	}
	after := snap.Commodities[0].Admitted
	if after >= before {
		t.Fatalf("admitted rate did not track the rate cut: before %g, after %g", before, after)
	}
	if snap.Commodities[0].Offered != 2.0 {
		t.Fatalf("snapshot offered rate = %g, want 2", snap.Commodities[0].Offered)
	}

	// Counters must show exactly the story: ≥1 cold and ≥1 warm solve.
	var prom strings.Builder
	if err := rec.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`streamopt_server_solves_total{start="cold"} 1`,
		`streamopt_server_solves_total{start="warm"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, prom.String())
		}
	}

	// And the HTTP read path serves the same snapshot.
	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/admitted", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/admitted status %d", resp.StatusCode)
	}
	var admitted struct {
		Generation  int64             `json:"generation"`
		Commodities []CommodityStatus `json:"commodities"`
	}
	if err := json.Unmarshal(body, &admitted); err != nil {
		t.Fatalf("admitted response does not parse: %v\n%s", err, body)
	}
	if admitted.Generation < snap.Generation {
		t.Fatalf("HTTP read behind waited snapshot: %d < %d", admitted.Generation, snap.Generation)
	}
}

// TestCommodityArrivalAndDepartureColdStart drives the membership
// endpoints in the paper mode: a POSTed arrival changes the extended
// topology, so the next solve cold-starts; a departure shrinks the
// admitted set again. (The serving mode keeps the commodities that stay
// warm: TestSurvivorsStayWarm.)
func TestCommodityArrivalAndDepartureColdStart(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	opts := testOptions(rec)
	opts.PaperMode = true
	s, ts := startServerWith(t, rec, opts)
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	spec := map[string]any{
		"name": "c2", "source": "a", "sink": "t2", "maxRate": 4.0,
		"utility": map[string]any{"type": "log", "weight": 2.0, "scale": 1.0},
		"edges": []map[string]any{
			{"from": "a", "to": "b", "beta": 1, "cost": 1},
			{"from": "b", "to": "t2", "beta": 1, "cost": 1},
		},
	}
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/commodities", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST commodity status %d: %s", resp.StatusCode, body)
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Warm {
		t.Fatal("solve after a topology change reported warm")
	}
	if len(snap.Commodities) != 2 {
		t.Fatalf("want 2 commodities after arrival, got %+v", snap.Commodities)
	}

	// A bad arrival must not poison the desired state: unknown sink.
	bad := map[string]any{
		"name": "c3", "source": "a", "sink": "nope", "maxRate": 1.0,
		"utility": map[string]any{"type": "linear", "slope": 1.0},
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/v1/commodities", bad)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad commodity accepted: status %d, want 404 for unknown sink", resp.StatusCode)
	}

	resp, body = doReq(t, http.MethodDelete, ts.URL+"/v1/commodities/c2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d: %s", resp.StatusCode, body)
	}
	snap2, err := s.WaitForGeneration(snap.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Commodities) != 1 {
		t.Fatalf("want 1 commodity after departure, got %+v", snap2.Commodities)
	}
}

// TestSurvivorsStayWarm: in the serving mode, the default, a decision
// that changes the commodity set carries the routing of every commodity
// it leaves in place, so an arrival, and a departure and an arrival
// coalesced into one decision, both publish warm.
func TestSurvivorsStayWarm(t *testing.T) {
	s, _ := startServer(t, nil)
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(name string) []byte {
		b, err := json.Marshal(map[string]any{
			"name": name, "source": "a", "sink": "t2", "maxRate": 4.0,
			"utility": map[string]any{"type": "log", "weight": 2.0, "scale": 1.0},
			"edges": []map[string]any{
				{"from": "a", "to": "b", "beta": 1, "cost": 1},
				{"from": "b", "to": "t2", "beta": 1, "cost": 1},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := s.AddCommodityJSON(spec("c2")); err != nil {
		t.Fatal(err)
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Warm || len(snap.Commodities) != 2 {
		t.Fatalf("arrival: warm %v, %d commodities; want warm, 2", snap.Warm, len(snap.Commodities))
	}
	// c3 takes the sink c2 gives up, in the same decision.
	if _, err := s.mutate(ingress{}, journal.RemoveCommodity("c2"), journal.AddCommodity(spec("c3"))); err != nil {
		t.Fatal(err)
	}
	snap, err = s.WaitForGeneration(snap.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Warm || len(snap.Commodities) != 2 || snap.Commodities[1].Name != "c3" {
		t.Fatalf("departure + arrival: warm %v, commodities %+v; want warm, c1 and c3", snap.Warm, snap.Commodities)
	}
}

// TestFailureInjectionReducesAdmission cuts server b to 10% of its
// capacity ({"scale":0.1}, the E8 idiom) and checks the next snapshot
// admits less than before.
func TestFailureInjectionReducesAdmission(t *testing.T) {
	s, ts := startServer(t, nil)
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	before := first.Commodities[0].Admitted

	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/nodes/b/capacity",
		map[string]any{"scale": 0.1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capacity cut status %d: %s", resp.StatusCode, body)
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Commodities[0].Admitted >= before {
		t.Fatalf("admission did not drop after failure: %g -> %g",
			before, snap.Commodities[0].Admitted)
	}
	if !snap.Warm {
		t.Fatal("capacity change should rebind (same topology) and warm-start")
	}
}

// TestConcurrentReadsDuringSolves hammers the read endpoints from many
// goroutines while a mutation stream keeps solves in flight. Under
// -race this is the no-torn-snapshot guarantee; structurally we assert
// every response parses, is internally consistent (total utility equals
// the sum of per-commodity utilities), and generations never go
// backward on any one connection-free reader.
func TestConcurrentReadsDuringSolves(t *testing.T) {
	s, ts := startServer(t, nil)
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Mutators: alternate rate changes and capacity wobbles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rate := 4.0 + float64(i%5)
			if _, err := s.SetMaxRate("c1", rate); err != nil {
				t.Errorf("SetMaxRate: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	readErr := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/snapshot")
				if err != nil {
					readErr <- err
					return
				}
				var snap Snapshot
				err = json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
				if err != nil {
					readErr <- fmt.Errorf("snapshot decode: %w", err)
					return
				}
				if snap.Generation < lastGen {
					readErr <- fmt.Errorf("generation went backward: %d after %d", snap.Generation, lastGen)
					return
				}
				lastGen = snap.Generation
				var sum float64
				for _, c := range snap.Commodities {
					sum += c.Utility
				}
				if diff := snap.Utility - sum; diff > 1e-6 || diff < -1e-6 {
					readErr <- fmt.Errorf("torn snapshot: utility %g != Σ commodity utilities %g", snap.Utility, sum)
					return
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}
}

// TestBurstCoalescing fires a burst of rate updates and checks the
// debounce window folds them into far fewer solves than mutations.
func TestBurstCoalescing(t *testing.T) {
	s, err := New(toyProblem(t), Options{
		MaxIters:      1500,
		StationaryTol: 1e-3,
		Debounce:      30 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.WaitForGeneration(1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}

	const burst = 25
	for i := 0; i < burst; i++ {
		if _, err := s.SetMaxRate("c1", 2+float64(i)*0.1); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.WaitForGeneration(first.Generation+1, waitBudget)
	if err != nil {
		t.Fatal(err)
	}
	// The whole burst landed before the debounce window closed, so it
	// must have produced very few extra generations (1 is the ideal;
	// give scheduling slack up to 3).
	if extra := snap.Generation - first.Generation; extra > 3 {
		t.Fatalf("burst of %d mutations produced %d generations; debounce not coalescing", burst, extra)
	}
	if got := snap.Commodities[0].Offered; got != 2+float64(burst-1)*0.1 {
		t.Fatalf("snapshot offered rate %g does not reflect the last mutation", got)
	}
}

// TestCloseDrainsInFlightSolve closes the server mid-solve (huge
// iteration budget, no early stop) and checks Close returns promptly
// because the loop drains at an iteration boundary.
func TestCloseDrainsInFlightSolve(t *testing.T) {
	s, err := New(toyProblem(t), Options{
		MaxIters:      50_000_000, // would run for minutes if not drained
		StationaryTol: -1,
		Debounce:      -1,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the solve get going
	done := make(chan struct{})
	go func() { _ = s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain the in-flight solve")
	}
}

// TestDrainedSnapshotReadsTheEngines closes the server inside the
// debounce window of a rate cut, so the solve that answers it is drained
// before any shard takes a turn. That snapshot must still report what
// the engines hold: c1's admitted rate at its new offered rate (the
// serving warm start holds it there, flow.Routing.HoldAdmitted), a
// utility equal to the admitted rate it sums, and no admission flip.
func TestDrainedSnapshotReadsTheEngines(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := testOptions(nil)
			opts.Shards, opts.PlacementSalt = shards, 7
			opts.Debounce = 300 * time.Millisecond
			s, err := New(toyProblem(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
				_ = s.Close()
				t.Fatal(err)
			}
			if _, err := s.SetMaxRate("c1", 6); err != nil {
				_ = s.Close()
				t.Fatal(err)
			}
			// Let the solver take the wake-up into its debounce: a close
			// that races the wake-up may skip the solve altogether.
			time.Sleep(5 * time.Millisecond)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			snap := s.Snapshot()
			if snap.Generation != 2 || !snap.Drained {
				t.Fatalf("generation %d drained %v: the close missed the debounce window", snap.Generation, snap.Drained)
			}
			c := snap.Commodities[0]
			if c.Offered != 6 || math.Abs(c.Admitted-6) > 1e-9 {
				t.Fatalf("c1 admitted %v of %v offered, want the new rate held", c.Admitted, c.Offered)
			}
			if math.Abs(snap.Utility-c.Admitted) > 1e-9 {
				t.Fatalf("utility %v, admitted rates sum to %v", snap.Utility, c.Admitted)
			}
			if flips := s.Flips(); len(flips) != 0 {
				t.Fatalf("flips %+v, want none", flips)
			}
		})
	}
}

// stallingUtility is a log utility the problem schema cannot serialize:
// Problem.MarshalJSON asks for its Name to say so, and the first such
// call after arm parks until release — a marshal of a large instance,
// held in flight for as long as the test needs.
type stallingUtility struct {
	utility.Log
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (u *stallingUtility) Name() string {
	if u.armed.CompareAndSwap(true, false) {
		close(u.entered)
		<-u.release
	}
	return "stalling"
}

// TestProblemJSONDoesNotBlockMutations: GET /v1/problem holds the
// write-path mutex only to read the installed problem's pointer, so a
// mutation is accepted while the O(J) marshal is still running.
func TestProblemJSONDoesNotBlockMutations(t *testing.T) {
	u := &stallingUtility{
		Log:     utility.Log{Weight: 2, Scale: 1},
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	p := toyProblem(t)
	p.Commodities[0].Utility = u
	s, err := New(p, testOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}

	u.armed.Store(true)
	marshalled := make(chan struct{})
	go func() {
		defer close(marshalled)
		_, _ = s.ProblemJSON() // errors: the utility is not serializable
	}()
	<-u.entered

	accepted := make(chan error, 1)
	go func() {
		_, err := s.SetMaxRate("c1", 5)
		accepted <- err
	}()
	select {
	case err := <-accepted:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("SetMaxRate blocked behind an in-flight ProblemJSON marshal")
	}
	close(u.release)
	<-marshalled
}
