package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/stream"
)

const c2Spec = `{
  "name": "c2", "source": "a", "sink": "t2", "maxRate": 1,
  "utility": {"type": "linear", "slope": 1},
  "edges": [{"from": "a", "to": "b", "beta": 1, "cost": 1}, {"from": "b", "to": "t2", "beta": 1, "cost": 1}]
}`

// wireCases is one call of each constructor, in an order that applies
// cleanly to toyProblem, with the journal record the server wrote for
// the same call at the commit before the constructors existed (the
// nine typed server methods on toyProblem, booted at rev 1, clocks
// zeroed). The format is frozen: recorded journals must keep replaying.
var wireCases = []struct {
	m      Mutation
	record string
}{
	{AddCommodity([]byte(c2Spec)),
		`{"kind":"mutation","rev":2,"mutation":{"op":"add_commodity","target":"c2","payload":{"name":"c2","source":"a","sink":"t2","maxRate":1,"utility":{"type":"linear","slope":1},"edges":[{"from":"a","to":"b","beta":1,"cost":1},{"from":"b","to":"t2","beta":1,"cost":1}]}}}`},
	{SetRate("c1", 2.5),
		`{"kind":"mutation","rev":3,"mutation":{"op":"set_rate","target":"c1","payload":{"rate":2.5}}}`},
	{SetRates(map[string]float64{"c2": 0.75, "c1": 3}),
		`{"kind":"mutation","rev":4,"mutation":{"op":"set_rates","target":"batch:2","payload":{"rates":{"c1":3,"c2":0.75}}}}`},
	{SetUtility("c1", []byte(`{"type": "log", "weight": 2}`)),
		`{"kind":"mutation","rev":5,"mutation":{"op":"set_utility","target":"c1","payload":{"type":"log","weight":2}}}`},
	{SetCapacity("a", 12.5),
		`{"kind":"mutation","rev":6,"mutation":{"op":"set_capacity","target":"a","payload":{"capacity":12.5}}}`},
	{ScaleCapacity("b", 0.25),
		`{"kind":"mutation","rev":7,"mutation":{"op":"scale_capacity","target":"b","payload":{"factor":0.25}}}`},
	{SetBandwidth("a", "b", 7),
		`{"kind":"mutation","rev":8,"mutation":{"op":"set_bandwidth","target":"a-\u003eb","payload":{"from":"a","to":"b","bandwidth":7}}}`},
	{ScaleBandwidth("a", "b", 0.5),
		`{"kind":"mutation","rev":9,"mutation":{"op":"scale_bandwidth","target":"a-\u003eb","payload":{"from":"a","to":"b","factor":0.5}}}`},
	{RemoveCommodity("c2"),
		`{"kind":"mutation","rev":10,"mutation":{"op":"remove_commodity","target":"c2"}}`},
}

// TestConstructorsKeepWireFormat pins each constructor's record to the
// recorded literal, and holds the two halves of Apply together: a
// constructed mutation (typed operands, no payload) and the same
// mutation decoded from its record must change a problem identically.
func TestConstructorsKeepWireFormat(t *testing.T) {
	built, decoded := toyProblem(t), toyProblem(t)
	for i, tc := range wireCases {
		m := tc.m
		t.Run(m.Op, func(t *testing.T) {
			enc := m
			if err := enc.Encode(); err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(Record{Kind: KindMutation, Rev: int64(i + 2), Mutation: &enc})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.record {
				t.Fatalf("record\n got %s\nwant %s", got, tc.record)
			}

			var rec Record
			if err := json.Unmarshal([]byte(tc.record), &rec); err != nil {
				t.Fatal(err)
			}
			if err := Apply(built, &m); err != nil {
				t.Fatalf("constructed: %v", err)
			}
			if err := Apply(decoded, rec.Mutation); err != nil {
				t.Fatalf("decoded: %v", err)
			}
			a, err := built.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			b, err := decoded.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("constructed and decoded mutations diverge:\n%s\n%s", a, b)
			}
		})
	}
	// The sequence did something: c1 ends re-rated with a log utility.
	if c, _ := built.CommodityByName("c1"); c.MaxRate != 3 {
		t.Fatalf("c1 rate = %v after the sequence, want 3", c.MaxRate)
	}
}

// TestApplyClassifiesRejections checks the errors.Is classes the HTTP
// status mapping switches on, and that an empty batch is rejected on
// every path into Apply.
func TestApplyClassifiesRejections(t *testing.T) {
	p := toyProblem(t)
	for _, tc := range []struct {
		name string
		m    Mutation
		want error // nil: rejected, but neither class
	}{
		{"remove unknown", RemoveCommodity("ghost"), stream.ErrNotFound},
		{"rate unknown", SetRate("ghost", 1), stream.ErrNotFound},
		{"scale unknown node", ScaleCapacity("ghost", 2), stream.ErrNotFound},
		{"scale missing link", ScaleBandwidth("a", "t2", 2), stream.ErrNotFound},
		{"duplicate name", AddCommodity([]byte(`{"name":"c1","source":"a","sink":"t2","maxRate":1,"utility":{"type":"linear","slope":1},"edges":[]}`)), stream.ErrConflict},
		{"negative rate", SetRate("c1", -3), nil},
		{"bogus utility", SetUtility("c1", []byte(`{"type":"bogus"}`)), nil},
		{"empty batch", SetRates(nil), nil},
		{"empty decoded batch", Mutation{Op: OpSetRates, Payload: []byte(`{"rates":{}}`)}, nil},
	} {
		err := Apply(p.Clone(), &tc.m)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		for _, class := range []error{stream.ErrNotFound, stream.ErrConflict} {
			if errors.Is(err, class) != (class == tc.want) {
				t.Fatalf("%s: errors.Is(%q, %v) = %v", tc.name, err, class, !(class == tc.want))
			}
		}
	}
}
