package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
)

// Observation is the driver's view of one published snapshot, reduced
// to the aggregates the analyzer cares about.
type Observation struct {
	Generation int64   `json:"generation"`
	Rev        int64   `json:"rev"` // mutation revision the solve captured
	Utility    float64 `json:"utility"`
	Feasible   bool    `json:"feasible"`
	// Offered and Admitted are Σ_j λ_j and Σ_j a_j at solve time.
	Offered  float64 `json:"offered"`
	Admitted float64 `json:"admitted"`
}

// AdmittedFrac is Σa/Σλ, or 0 when nothing is offered.
func (o Observation) AdmittedFrac() float64 {
	if o.Offered <= 0 {
		return 0
	}
	return o.Admitted / o.Offered
}

// Backend is where compiled events land. Two implementations: InProc
// (a *server.Server in the same process — deterministic tests,
// throughput benchmarks) and HTTP (a live admissiond).
type Backend interface {
	// Apply issues one mutation and returns the server revision it
	// produced, so the driver can wait for the snapshot that
	// incorporates it.
	Apply(m journal.Mutation) (int64, error)
	// Observe is the latest published snapshot (zero Observation
	// before the first publish).
	Observe() (Observation, error)
	// WaitForGeneration blocks until a snapshot with generation ≥ gen
	// is published, returning its aggregates.
	WaitForGeneration(gen int64, timeout time.Duration) (Observation, error)
}

// InProc drives an in-process server directly — no serialization, no
// sockets, fully deterministic under test.
type InProc struct{ S *server.Server }

func (b InProc) Apply(m journal.Mutation) (int64, error) { return b.S.Apply(m) }

func (b InProc) Observe() (Observation, error) {
	if snap := b.S.Snapshot(); snap != nil {
		return observe(snap), nil
	}
	return Observation{}, nil
}

func (b InProc) WaitForGeneration(gen int64, timeout time.Duration) (Observation, error) {
	snap, err := b.S.WaitForGeneration(gen, timeout)
	if err != nil {
		return Observation{}, err
	}
	return observe(snap), nil
}

func observe(snap *server.Snapshot) Observation {
	o := Observation{
		Generation: snap.Generation,
		Rev:        snap.Rev,
		Utility:    snap.Utility,
		Feasible:   snap.Feasible,
	}
	for _, c := range snap.Commodities {
		o.Offered += c.Offered
		o.Admitted += c.Admitted
	}
	return o
}

// HTTP drives a live admissiond over its REST API.
type HTTP struct {
	Base   string // e.g. "http://localhost:8080"
	Client *http.Client
}

// httpPoll is how often HTTP.WaitForGeneration reads the snapshot.
const httpPoll = 10 * time.Millisecond

func (b HTTP) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

// do sends one mutation and returns the server revision it produced.
func (b HTTP) do(method, path string, body []byte) (int64, error) {
	req, err := http.NewRequest(method, b.Base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("loadgen: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	var out struct {
		Rev int64 `json:"rev"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("loadgen: %s %s: decode response: %w", method, path, err)
	}
	return out.Rev, nil
}

// Apply is the REST client encoder, the mirror of the routes in
// internal/server/http.go: each op becomes its method, path and body.
// Names are escaped per path segment, since internal/stream places no
// restriction on them.
func (b HTTP) Apply(m journal.Mutation) (int64, error) {
	commodity := "/v1/commodities/" + url.PathEscape(m.Target)
	capacity := "/v1/nodes/" + url.PathEscape(m.Target) + "/capacity"
	switch m.Op {
	case journal.OpAddCommodity:
		return b.do("POST", "/v1/commodities", m.Payload)
	case journal.OpRemoveCommodity:
		return b.do("DELETE", commodity, nil)
	case journal.OpSetRate:
		pl, err := journal.Decode[journal.RatePayload](&m)
		return b.send(err, "PATCH", commodity, map[string]any{"maxRate": pl.Rate})
	case journal.OpSetRates:
		pl, err := journal.Decode[journal.RatesPayload](&m)
		return b.send(err, "POST", "/v1/rates", pl)
	case journal.OpSetUtility:
		return b.send(nil, "PATCH", commodity, map[string]any{"utility": m.Payload})
	case journal.OpSetCapacity:
		pl, err := journal.Decode[journal.CapacityPayload](&m)
		return b.send(err, "POST", capacity, pl)
	case journal.OpScaleCapacity:
		pl, err := journal.Decode[journal.ScalePayload](&m)
		return b.send(err, "POST", capacity, map[string]any{"scale": pl.Factor})
	case journal.OpSetBandwidth, journal.OpScaleBandwidth:
		// The route takes exactly one of the two; the op left the other zero.
		pl, err := journal.Decode[journal.LinkPayload](&m)
		path := "/v1/links/" + url.PathEscape(pl.From) + "/" + url.PathEscape(pl.To) + "/bandwidth"
		return b.send(err, "POST", path, map[string]any{"bandwidth": pl.Bandwidth, "scale": pl.Factor})
	}
	return 0, fmt.Errorf("loadgen: no route for mutation op %q", m.Op)
}

// send issues one mutation with body as its JSON, unless decoding the
// mutation's operands already failed with err.
func (b HTTP) send(err error, method, path string, body any) (int64, error) {
	if err != nil {
		return 0, err
	}
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	return b.do(method, path, data)
}

func (b HTTP) Observe() (Observation, error) {
	resp, err := b.client().Get(b.Base + "/v1/snapshot")
	if err != nil {
		return Observation{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return Observation{}, nil // no snapshot yet
	}
	if resp.StatusCode != http.StatusOK {
		return Observation{}, fmt.Errorf("loadgen: GET /v1/snapshot: %s", resp.Status)
	}
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return Observation{}, err
	}
	return observe(&snap), nil
}

func (b HTTP) WaitForGeneration(gen int64, timeout time.Duration) (Observation, error) {
	deadline := time.Now().Add(timeout)
	for {
		o, err := b.Observe()
		if err != nil {
			return Observation{}, err
		}
		if o.Generation >= gen {
			return o, nil
		}
		if time.Now().After(deadline) {
			return Observation{}, fmt.Errorf("loadgen: timeout waiting for generation %d (at %d)", gen, o.Generation)
		}
		time.Sleep(httpPoll)
	}
}

// waitForRev blocks until a published snapshot's Rev reaches rev —
// i.e. until every mutation up to rev is reflected in a decision.
func waitForRev(be Backend, rev int64, timeout time.Duration) (Observation, error) {
	deadline := time.Now().Add(timeout)
	o, err := be.Observe()
	if err != nil {
		return Observation{}, err
	}
	for o.Rev < rev {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return Observation{}, fmt.Errorf("loadgen: timeout waiting for rev %d (snapshot at rev %d)", rev, o.Rev)
		}
		o, err = be.WaitForGeneration(o.Generation+1, remaining)
		if err != nil {
			return Observation{}, err
		}
	}
	return o, nil
}

// DriverOptions tunes Run.
type DriverOptions struct {
	// SyncEvery makes the driver block for the snapshot incorporating
	// the epoch's mutations every N mutating epochs, measuring
	// ingest-to-publish latency. 0 means sync only once at the end
	// (maximum throughput); 1 measures every mutating epoch.
	SyncEvery int
	// SyncTimeout bounds each wait; default 10 s.
	SyncTimeout time.Duration
	// RealTime honors the scenario's epochMillis pacing on the wall
	// clock. False runs the virtual clock as fast as possible.
	RealTime bool
}

// EpochSample is one epoch's driver-side record.
type EpochSample struct {
	Epoch     int     `json:"epoch"`
	Active    int     `json:"active"`    // commodities present after this epoch
	Mutations int     `json:"mutations"` // mutations this epoch applied
	Offered   float64 `json:"offered"`   // Σλ after this epoch (driver-side)
	// Synced epochs carry the observed snapshot aggregates and the
	// ingest-to-publish latency; unsynced epochs have Latency < 0.
	Utility        float64 `json:"utility"`
	AdmittedFrac   float64 `json:"admittedFrac"`
	LatencySeconds float64 `json:"latencySeconds"`
}

// RunResult summarizes one driven scenario.
type RunResult struct {
	Samples   []EpochSample `json:"samples"`
	Mutations int           `json:"mutations"`
	Seconds   float64       `json:"seconds"`
	// MutationsPerSec is the applied-mutation throughput over the whole
	// run (the CI smoke floor checks this).
	MutationsPerSec float64 `json:"mutationsPerSec"`
	// Final is the snapshot that incorporates the run's last mutation.
	Final Observation `json:"final"`
}

// Run drives one compiled scenario against a backend, epoch by epoch:
// arrivals and faults apply individually, an epoch's rate changes
// coalesce into one SetRates batch, departures apply individually.
// Events apply in compiled order, so a run is as deterministic as the
// backend lets it be.
func Run(c *Compiled, be Backend, opts DriverOptions) (*RunResult, error) {
	if opts.SyncTimeout <= 0 {
		opts.SyncTimeout = 10 * time.Second
	}
	res := &RunResult{}
	offered := map[string]float64{} // driver-side view of λ by commodity
	var lastRev int64
	start := time.Now()
	cursor := 0
	syncDue := 0
	for epoch := 0; epoch < c.Scenario.Epochs; epoch++ {
		if opts.RealTime && c.Scenario.EpochMillis > 0 {
			wakeAt := start.Add(time.Duration(epoch*c.Scenario.EpochMillis) * time.Millisecond)
			if d := time.Until(wakeAt); d > 0 {
				time.Sleep(d)
			}
		}
		applied := 0
		rates := map[string]float64{}
		flushRates := func() error {
			if len(rates) == 0 {
				return nil
			}
			rev, err := be.Apply(journal.SetRates(rates))
			if err != nil {
				return err
			}
			lastRev = rev
			applied += len(rates)
			for name, r := range rates {
				offered[name] = r
			}
			rates = map[string]float64{}
			return nil
		}
		epochStart := time.Now()
		for ; cursor < len(c.Events) && c.Events[cursor].Epoch == epoch; cursor++ {
			e := c.Events[cursor]
			var m journal.Mutation
			switch e.Kind {
			case "rate":
				// Batched; flushed before any non-rate event so the
				// backend sees the compiled order.
				rates[e.Commodity] = e.Rate
				continue
			case "arrive":
				m = journal.AddCommodity(e.Spec)
			case "depart":
				m = journal.RemoveCommodity(e.Commodity)
			case "scale_capacity":
				m = journal.ScaleCapacity(e.Node, e.Factor)
			case "set_capacity":
				m = journal.SetCapacity(e.Node, e.Value)
			case "scale_bandwidth":
				m = journal.ScaleBandwidth(e.From, e.To, e.Factor)
			case "set_bandwidth":
				m = journal.SetBandwidth(e.From, e.To, e.Value)
			default:
				return nil, fmt.Errorf("loadgen: epoch %d seq %d: unknown event kind %q", e.Epoch, e.Seq, e.Kind)
			}
			err := flushRates()
			var rev int64
			if err == nil {
				rev, err = be.Apply(m)
			}
			if err != nil {
				return nil, fmt.Errorf("loadgen: epoch %d seq %d: %w", e.Epoch, e.Seq, err)
			}
			switch e.Kind {
			case "arrive":
				offered[e.Commodity] = e.Rate
			case "depart":
				delete(offered, e.Commodity)
			}
			if rev > 0 {
				lastRev = rev
			}
			applied++
		}
		if err := flushRates(); err != nil {
			return nil, fmt.Errorf("loadgen: epoch %d: %w", epoch, err)
		}

		sample := EpochSample{
			Epoch:          epoch,
			Active:         len(offered),
			Mutations:      applied,
			Offered:        sum(offered),
			LatencySeconds: -1,
		}
		if applied > 0 {
			res.Mutations += applied
			syncDue++
			if opts.SyncEvery > 0 && syncDue >= opts.SyncEvery {
				syncDue = 0
				o, err := waitForRev(be, lastRev, opts.SyncTimeout)
				if err != nil {
					return nil, fmt.Errorf("loadgen: epoch %d: %w", epoch, err)
				}
				sample.LatencySeconds = time.Since(epochStart).Seconds()
				sample.Utility = o.Utility
				sample.AdmittedFrac = o.AdmittedFrac()
				res.Final = o
			}
		}
		res.Samples = append(res.Samples, sample)
	}
	// Final barrier: the run only counts as done once a published
	// snapshot incorporates the last accepted mutation.
	if res.Mutations > 0 {
		o, err := waitForRev(be, lastRev, opts.SyncTimeout)
		if err != nil {
			return nil, fmt.Errorf("loadgen: final sync: %w", err)
		}
		res.Final = o
	}
	res.Seconds = time.Since(start).Seconds()
	if res.Seconds > 0 {
		res.MutationsPerSec = float64(res.Mutations) / res.Seconds
	}
	return res, nil
}

func sum(m map[string]float64) float64 {
	// Deterministic order so float addition is reproducible run to run.
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0.0
	for _, name := range names {
		total += m[name]
	}
	return total
}
