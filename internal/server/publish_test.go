package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/randnet"
)

// TestPublishedBodiesArePinned pins the bytes of GET /explain and GET
// /v1/usage after the first publish of a J=1k one-engine server, on the
// benchmark's sparse instance and solver settings. The hashes were
// taken before the publish path stopped allocating per commodity and
// per entry (lean attribution, one name table per network): the
// snapshot it builds is the same, down to a Binding with no entries
// marshalling as null. The /v1/usage hash was taken again when
// core.NodeUsage gained lowerCamel JSON keys; the body is the earlier
// one with its five keys renamed, byte for byte otherwise.
func TestPublishedBodiesArePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The bodies carry floats bit for bit, and compilers for other
		// architectures may fuse the solver's multiply-adds.
		t.Skip("hashes were taken on amd64")
	}
	p, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, Options{Eta: 0.005, MaxIters: 400, StationaryTol: 5e-3, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.WaitForGeneration(1, waitBudget); err != nil {
		t.Fatal(err)
	}
	h := s.Handler(nil)
	for path, want := range map[string]string{
		"/explain":  "96df91fba2bf5a6da40f45aa609ce5016b4d6b0f0af027fd9b3dea87af8e1db4",
		"/v1/usage": "202424861f8b652c346d751050a8abd5a4d8ba89fa08a31d5fe8431f6527dae9",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("GET %s body (%d bytes) hashes to %s, want %s", path, rec.Body.Len(), got, want)
		}
	}
}

// mapDiffFlips is DiffFlips in its plain form: every previous state
// looked up by name.
func mapDiffFlips(prev, next *Snapshot) []AdmissionFlip {
	was := make(map[string]bool, len(prev.Commodities))
	for _, c := range prev.Commodities {
		was[c.Name] = !rejected(c.Admitted, c.Offered)
	}
	var flips []AdmissionFlip
	for _, c := range next.Commodities {
		admitted := !rejected(c.Admitted, c.Offered)
		if before, known := was[c.Name]; known && before != admitted {
			flips = append(flips, AdmissionFlip{
				Generation: next.Generation, Commodity: c.Name,
				Admitted: admitted, Rate: c.Admitted, Offered: c.Offered,
			})
		}
	}
	return flips
}

// TestDiffFlipsMatchesTheMapForm: walking the two snapshots in step
// while their names line up, and by name after a membership change,
// finds the flips the by-name lookup finds, in the same order.
func TestDiffFlipsMatchesTheMapForm(t *testing.T) {
	st := func(name string, admitted float64) CommodityStatus {
		return CommodityStatus{Name: name, Offered: 10, Admitted: admitted}
	}
	prev := []CommodityStatus{st("a", 5), st("b", 0), st("c", 5), st("d", 0), st("e", 5)}
	for _, tc := range []struct {
		name string
		next []CommodityStatus
	}{
		{"same order", []CommodityStatus{st("a", 0), st("b", 5), st("c", 5), st("d", 0), st("e", 0)}},
		{"departure", []CommodityStatus{st("a", 0), st("b", 5), st("d", 5), st("e", 0)}},
		{"departure of the last", []CommodityStatus{st("a", 0), st("b", 5), st("c", 0), st("d", 5)}},
		{"arrival", []CommodityStatus{st("a", 5), st("b", 5), st("c", 0), st("d", 0), st("e", 0), st("f", 0)}},
		{"departure and re-arrival", []CommodityStatus{st("a", 0), st("b", 0), st("d", 5), st("e", 5), st("c", 0)}},
		{"empty", nil},
	} {
		p := &Snapshot{Generation: 6, Commodities: prev}
		n := &Snapshot{Generation: 7, Commodities: tc.next}
		got, want := DiffFlips(p, n), mapDiffFlips(p, n)
		if len(want) == 0 && tc.name != "empty" {
			t.Fatalf("%s: the case flips nothing", tc.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DiffFlips = %+v, want %+v", tc.name, got, want)
		}
	}
	if DiffFlips(nil, &Snapshot{Commodities: prev}) != nil {
		t.Error("DiffFlips with no previous snapshot found flips")
	}
}

// TestStatusRowsAreTheExplanation: through an arrival, a departure, a
// rate batch and a capacity cut and its restore, at one shard and at
// four, every published snapshot's status row gi carries the name and
// the bits of the offered rate, admitted rate and utility of
// explanation entry gi, one row per commodity of the problem solved.
func TestStatusRowsAreTheExplanation(t *testing.T) {
	p, err := randnet.GenerateSparse(randnet.Config{Seed: 13, Nodes: 48, Layers: 6, Commodities: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			gate := make(chan struct{})
			s, err := New(p, Options{
				Shards: shards, PlacementSalt: 7, MaxIters: 200, StationaryTol: 5e-3,
				SolveGate: gate, Logf: func(string, ...any) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var gen int64
			// solve publishes the next generation and checks it holds
			// j commodities.
			solve := func(label string, j int) *Snapshot {
				t.Helper()
				select {
				case gate <- struct{}{}:
				case <-time.After(waitBudget):
					t.Fatalf("%s: gate token not taken", label)
				}
				gen++
				snap, err := s.WaitForGeneration(gen, waitBudget)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(snap.Commodities) != j || len(snap.Explain) != j {
					t.Fatalf("%s: %d status rows and %d explanations, want %d", label, len(snap.Commodities), len(snap.Explain), j)
				}
				for gi, row := range snap.Commodities {
					e := snap.Explain[gi]
					if row.Name != e.Name || math.Float64bits(row.Offered) != math.Float64bits(e.Offered) ||
						math.Float64bits(row.Admitted) != math.Float64bits(e.Admitted) ||
						math.Float64bits(row.Utility) != math.Float64bits(e.Utility) {
						t.Fatalf("%s: row %d %+v, explanation %q offered %v admitted %v utility %v",
							label, gi, row, e.Name, e.Offered, e.Admitted, e.Utility)
					}
				}
				return snap
			}
			must := func(_ int64, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}

			boot := solve("boot", 300)
			first := p.Commodities[0].Name
			spec, err := p.MarshalCommodityJSON(first)
			if err != nil {
				t.Fatal(err)
			}
			must(s.RemoveCommodity(first))
			solve("departure", 299)
			must(s.AddCommodityJSON(spec))
			solve("arrival", 300)
			rates := map[string]float64{}
			for _, cm := range p.Commodities[:40] {
				rates[cm.Name] = 1.5 * cm.MaxRate
			}
			must(s.SetMaxRates(rates))
			solve("rate batch", 300)
			// Cut the busiest server to a quarter, then restore it.
			busy := core.NodeUsage{}
			for _, u := range boot.Usage {
				if u.Kind == "server" && u.Utilization > busy.Utilization {
					busy = u
				}
			}
			if busy.Utilization == 0 {
				t.Fatal("the boot snapshot loads no server")
			}
			must(s.SetCapacity(busy.Name, busy.Capacity/4))
			solve("capacity cut", 300)
			must(s.SetCapacity(busy.Name, busy.Capacity))
			solve("capacity restore", 300)
		})
	}
}
