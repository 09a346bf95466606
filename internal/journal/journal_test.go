package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/utility"
)

// toyProblem parses the repository's toy fixture: servers a → b
// (capacity 10), sinks t1 and t2, and one commodity c1: a→t1 at λ=8.
func toyProblem(t *testing.T) *stream.Problem {
	t.Helper()
	data, err := os.ReadFile("../../testdata/toy-problem.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := stream.ParseProblem(data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{StreamSHA: "cafe", Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p := toyProblem(t)
	pj, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindCheckpoint, Rev: 1, Checkpoint: &Checkpoint{
			Problem: pj, Restart: true,
			Solver: &SolverParams{Epsilon: 0.05, Eta: 0.1, MaxIters: 500, StationaryTol: 1e-3},
		}},
		{Kind: KindMutation, Rev: 2, Trace: "0123456789abcdef0123456789abcdef", Mutation: &Mutation{
			Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 4}),
		}},
		{Kind: KindDigest, Rev: 2, Digest: &Digest{
			Generation: 1, Warm: true, Iterations: 42, Converged: true, Feasible: true,
			Utility: 3.25, Commodities: 1, AdmittedHash: "abc",
			Flips: []Flip{{Commodity: "c1", Admitted: true}},
		}},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated {
		t.Fatal("clean journal reported truncated")
	}
	if len(log.Headers) != 1 || log.Headers[0].Version != Version || log.Headers[0].Segment != 0 {
		t.Fatalf("headers = %+v", log.Headers)
	}
	if got := log.StreamSHA(); got != "cafe" {
		t.Fatalf("StreamSHA = %q, want cafe", got)
	}
	if len(log.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(log.Records))
	}
	cp := log.Records[0]
	if cp.Kind != KindCheckpoint || !cp.Checkpoint.Restart || cp.Checkpoint.Solver.MaxIters != 500 {
		t.Fatalf("checkpoint = %+v", cp)
	}
	if cp.WallUnixNano == 0 || cp.MonoNanos == 0 {
		t.Fatal("writer did not stamp clocks")
	}
	mu := log.Records[1]
	if mu.Kind != KindMutation || mu.Mutation.Op != OpSetRate || mu.Trace == "" {
		t.Fatalf("mutation = %+v", mu)
	}
	dg := log.Records[2]
	if dg.Kind != KindDigest || dg.Digest.Utility != 3.25 || len(dg.Digest.Flips) != 1 {
		t.Fatalf("digest = %+v", dg)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{SegmentBytes: 512, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		err := w.Append(Record{Kind: KindMutation, Rev: int64(i + 1), Mutation: &Mutation{
			Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: float64(i)}),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if w.Segment() < 2 {
		t.Fatalf("expected rotation past segment 1, at %d", w.Segment())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Segments) != len(log.Headers) {
		t.Fatalf("%d segments, %d headers", len(log.Segments), len(log.Headers))
	}
	if len(log.Segments) < 3 {
		t.Fatalf("expected >=3 segments, got %v", log.Segments)
	}
	for i, h := range log.Headers {
		if h.Segment != log.Segments[i] {
			t.Fatalf("header %d names segment %d", log.Segments[i], h.Segment)
		}
		if h.JournalID != log.Headers[0].JournalID {
			t.Fatal("segments of one run disagree on journal ID")
		}
	}
	if len(log.Records) != n {
		t.Fatalf("got %d records across segments, want %d", len(log.Records), n)
	}
	for i, r := range log.Records {
		if r.Rev != int64(i+1) {
			t.Fatalf("record %d has rev %d", i, r.Rev)
		}
	}
}

func TestCreateContinuesExistingJournal(t *testing.T) {
	dir := t.TempDir()
	w1, err := Create(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Append(Record{Kind: KindMutation, Rev: 1, Mutation: &Mutation{Op: OpRemoveCommodity, Target: "x"}}); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Create(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Segment() != 1 {
		t.Fatalf("second writer started at segment %d, want 1", w2.Segment())
	}
	if err := w2.Append(Record{Kind: KindMutation, Rev: 2, Mutation: &Mutation{Op: OpRemoveCommodity, Target: "y"}}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != 2 || log.Records[1].Rev != 2 {
		t.Fatalf("stitched records = %+v", log.Records)
	}
	if log.Headers[0].JournalID == log.Headers[1].JournalID {
		t.Fatal("distinct runs share a journal ID")
	}
}

func TestLagAndSync(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w, err := Create(dir, Options{Fsync: FsyncNever, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lag := func() (unsyncedBytes, unsyncedRecords float64) {
		return reg.Gauge("streamopt_journal_unsynced_bytes", "").Value(),
			reg.Gauge("streamopt_journal_unsynced_records", "").Value()
	}
	// The segment header was synced by openSegment's policy only if due;
	// with no policy syncs the header itself is unsynced. Establish a
	// baseline with an explicit Sync.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if b, r := lag(); b != 0 || r != 0 {
		t.Fatalf("lag after sync = %v bytes, %v records", b, r)
	}
	if err := w.Append(Record{Kind: KindMutation, Rev: 1, Mutation: &Mutation{Op: OpRemoveCommodity, Target: "x"}}); err != nil {
		t.Fatal(err)
	}
	if b, r := lag(); b <= 0 || r != 1 {
		t.Fatalf("lag after append = %v bytes, %v records", b, r)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if b, r := lag(); b != 0 || r != 0 {
		t.Fatalf("lag after sync = %v bytes, %v records", b, r)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"": FsyncInterval, "interval": FsyncInterval,
		"always": FsyncAlways, "never": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestAdmittedHash(t *testing.T) {
	a := []AdmittedEntry{{Name: "b", Rate: 2}, {Name: "a", Rate: 1}}
	b := []AdmittedEntry{{Name: "a", Rate: 1}, {Name: "b", Rate: 2}}
	if AdmittedHash(a) != AdmittedHash(b) {
		t.Fatal("hash depends on input order")
	}
	c := []AdmittedEntry{{Name: "a", Rate: 1}, {Name: "b", Rate: 2.0000000000000004}}
	if AdmittedHash(b) == AdmittedHash(c) {
		t.Fatal("hash misses a one-ulp rate change")
	}
	if AdmittedHash(nil) == "" {
		t.Fatal("empty set should still hash")
	}
}

func TestApplyOps(t *testing.T) {
	p := toyProblem(t)

	if err := Apply(p, &Mutation{Op: OpSetRate, Target: "c1", Payload: mustJSON(t, RatePayload{Rate: 5})}); err != nil {
		t.Fatal(err)
	}
	c, _ := p.CommodityByName("c1")
	if c.MaxRate != 5 {
		t.Fatalf("MaxRate = %v after set_rate", c.MaxRate)
	}

	if err := Apply(p, &Mutation{Op: OpSetRates, Payload: mustJSON(t, RatesPayload{Rates: map[string]float64{"c1": 6}})}); err != nil {
		t.Fatal(err)
	}
	if c.MaxRate != 6 {
		t.Fatalf("MaxRate = %v after set_rates", c.MaxRate)
	}

	if err := Apply(p, &Mutation{Op: OpSetUtility, Target: "c1", Payload: []byte(`{"type":"log","weight":2,"scale":1}`)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Utility.(utility.Log); !ok {
		t.Fatalf("utility = %T after set_utility", c.Utility)
	}

	if err := Apply(p, &Mutation{Op: OpSetCapacity, Target: "a", Payload: mustJSON(t, CapacityPayload{Capacity: 20})}); err != nil {
		t.Fatal(err)
	}
	aID, _ := p.Net.NodeByName("a")
	if p.Net.Capacity[aID] != 20 {
		t.Fatalf("capacity = %v after set_capacity", p.Net.Capacity[aID])
	}

	if err := Apply(p, &Mutation{Op: OpScaleCapacity, Target: "a", Payload: mustJSON(t, ScalePayload{Factor: 0.5})}); err != nil {
		t.Fatal(err)
	}
	if p.Net.Capacity[aID] != 10 {
		t.Fatalf("capacity = %v after scale_capacity", p.Net.Capacity[aID])
	}

	if err := Apply(p, &Mutation{Op: OpSetBandwidth, Payload: mustJSON(t, LinkPayload{From: "a", To: "b", Bandwidth: 30})}); err != nil {
		t.Fatal(err)
	}
	aid, _ := p.Net.NodeByName("a")
	bid, _ := p.Net.NodeByName("b")
	e := p.Net.G.EdgeBetween(aid, bid)
	if p.Net.Bandwidth[e] != 30 {
		t.Fatalf("bandwidth = %v after set_bandwidth", p.Net.Bandwidth[e])
	}

	if err := Apply(p, &Mutation{Op: OpScaleBandwidth, Payload: mustJSON(t, LinkPayload{From: "a", To: "b", Factor: 2})}); err != nil {
		t.Fatal(err)
	}
	if p.Net.Bandwidth[e] != 60 {
		t.Fatalf("bandwidth = %v after scale_bandwidth", p.Net.Bandwidth[e])
	}

	cjson, err := p.MarshalCommodityJSON("c1")
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(p, &Mutation{Op: OpRemoveCommodity, Target: "c1"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.CommodityByName("c1"); ok {
		t.Fatal("c1 survived remove_commodity")
	}
	if err := Apply(p, &Mutation{Op: OpAddCommodity, Target: "c1", Payload: cjson}); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.CommodityByName("c1"); !ok {
		t.Fatal("c1 missing after add_commodity")
	}

	if err := Apply(p, &Mutation{Op: "warp_time"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := Apply(p, &Mutation{Op: OpRemoveCommodity, Target: "ghost"}); err == nil {
		t.Fatal("removing unknown commodity accepted")
	}
}

// TestAppendKeepsNonZeroClocks: Append stamps only zero clocks, so
// re-appending read records (a rewritten fixture journal) keeps the
// recorded timeline.
func TestAppendKeepsNonZeroClocks(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	kept := Record{Kind: KindMutation, Rev: 1, WallUnixNano: 1234, MonoNanos: 56, Mutation: &Mutation{Op: OpRemoveCommodity, Target: "x"}}
	stamped := Record{Kind: KindMutation, Rev: 2, Mutation: &Mutation{Op: OpRemoveCommodity, Target: "y"}}
	for _, rec := range []Record{kept, stamped} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	read, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(read.Records) != 2 {
		t.Fatalf("read %d records, want 2", len(read.Records))
	}
	if got := read.Records[0]; got.WallUnixNano != 1234 || got.MonoNanos != 56 {
		t.Fatalf("non-zero clocks restamped: wall %d mono %d", got.WallUnixNano, got.MonoNanos)
	}
	if got := read.Records[1]; got.WallUnixNano == 0 {
		t.Fatal("zero wall clock not stamped")
	}
}

func TestReadDirRejectsMissingHeader(t *testing.T) {
	dir := t.TempDir()
	// A segment whose first record is a mutation, not a header.
	frame, err := encodeFrame(&Record{Kind: KindMutation, Rev: 1, WallUnixNano: 1, MonoNanos: 1,
		Mutation: &Mutation{Op: OpRemoveCommodity, Target: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SegmentName(0)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("headerless segment accepted")
	}
}
