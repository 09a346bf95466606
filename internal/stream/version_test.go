package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/utility"
)

func mustMarshal(t *testing.T, p *Problem) []byte {
	t.Helper()
	b, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// s3Spec is a third Figure-1 commodity: S1's route onto a sink of its own.
func s3Spec(t *testing.T, p *Problem) []byte {
	t.Helper()
	spec, err := p.MarshalCommodityJSON("S1")
	if err != nil {
		t.Fatal(err)
	}
	spec = bytes.ReplaceAll(spec, []byte(`"S1"`), []byte(`"S3"`))
	return bytes.ReplaceAll(spec, []byte(`"sink:S1"`), []byte(`"sink:S3"`))
}

// figure1WithSpareSink is Figure 1 plus an unused sink every server
// feeding sink:S1 also feeds, so a third commodity can arrive.
func figure1WithSpareSink(t *testing.T) *Problem {
	t.Helper()
	p := figure1ForClone(t)
	s1, _ := p.Net.NodeByName("sink:S1")
	s3, err := p.Net.AddSink("sink:S3")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Net.G.In(s1) {
		if _, err := p.Net.AddLink(p.Net.G.Edge(e).From, s3, 10); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestNewVersionLeavesPredecessorUntouched runs every mutator on a
// version and checks, byte for byte, that the version it was derived
// from did not move — one subtest per thing a version shares, so a
// missing copy-before-write names itself.
func TestNewVersionLeavesPredecessorUntouched(t *testing.T) {
	link := func(p *Problem) (string, string) {
		e := p.Net.G.Edge(0)
		return p.Net.Names[e.From], p.Net.Names[e.To]
	}
	edits := []struct {
		name string
		edit func(t *testing.T, v *Problem) error
	}{
		{"SetMaxRate", func(_ *testing.T, v *Problem) error { return v.SetMaxRate("S1", 42) }},
		{"SetUtility", func(_ *testing.T, v *Problem) error { return v.SetUtility("S2", utility.Log{Weight: 3, Scale: 1}) }},
		{"RenameCommodity", func(_ *testing.T, v *Problem) error { return v.RenameCommodity("S1", "renamed") }},
		// Shifts every later pointer down one slot of the slice.
		{"RemoveCommodity", func(_ *testing.T, v *Problem) error {
			if !v.RemoveCommodity("S1") {
				return errors.New("S1 not found")
			}
			return nil
		}},
		// Appends into whatever capacity the slice has.
		{"AddCommodityFromJSON", func(t *testing.T, v *Problem) error {
			_, err := v.AddCommodityFromJSON(s3Spec(t, v))
			return err
		}},
		// journal.Apply calls these on p.Net directly.
		{"Net.SetCapacity", func(_ *testing.T, v *Problem) error { return v.Net.SetCapacity("server1", 99) }},
		{"Net.SetBandwidth", func(_ *testing.T, v *Problem) error {
			from, to := link(v)
			return v.Net.SetBandwidth(from, to, 77)
		}},
		{"Net.AddServer+AddLink", func(_ *testing.T, v *Problem) error {
			id, err := v.Net.AddServer("extra", 5)
			if err != nil {
				return err
			}
			s1, _ := v.Net.NodeByName("server1")
			_, err = v.Net.AddLink(s1, id, 5)
			return err
		}},
	}
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			p := figure1WithSpareSink(t)
			// Spare capacity behind the slice, as append leaves it: an
			// AddCommodity that appended in place would write it.
			p.Commodities = append(make([]*Commodity, 0, 8), p.Commodities...)
			before := mustMarshal(t, p)

			v := p.NewVersion()
			if !bytes.Equal(mustMarshal(t, v), before) {
				t.Fatal("a new version does not equal its predecessor")
			}
			if err := tc.edit(t, v); err != nil {
				t.Fatal(err)
			}
			after := mustMarshal(t, v)
			if bytes.Equal(after, before) {
				t.Fatal("the edit did not change the version it was made on")
			}
			if !bytes.Equal(mustMarshal(t, p), before) {
				t.Fatalf("editing a version moved its predecessor:\n%s", mustMarshal(t, p))
			}
			if spare := p.Commodities[:cap(p.Commodities)][len(p.Commodities)]; spare != nil {
				t.Fatal("the predecessor's slice was appended to in place")
			}

			// The same one step down the chain, and a sibling version:
			// neither sees the other's edit.
			w, sib := v.NewVersion(), p.NewVersion()
			if err := tc.edit(t, sib); err != nil {
				t.Fatal(err)
			}
			if err := w.SetMaxRate("S2", 1.25); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustMarshal(t, v), after) || !bytes.Equal(mustMarshal(t, p), before) {
				t.Fatal("an edit further down the chain moved an older version")
			}
			if !bytes.Equal(mustMarshal(t, sib), after) {
				t.Fatal("two versions of one predecessor disagree after the same edit")
			}
			if err := v.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNewVersionSharesWhatItDoesNotWrite: a rate change copies one
// Commodity struct — not its Edges map, no other commodity, no vector.
func TestNewVersionSharesWhatItDoesNotWrite(t *testing.T) {
	p := figure1ForClone(t)
	v := p.NewVersion()
	if err := v.SetMaxRate("S1", 3); err != nil {
		t.Fatal(err)
	}
	if v.Commodities[0] == p.Commodities[0] || p.Commodities[0].MaxRate != 5 {
		t.Fatal("the written commodity was edited in place")
	}
	if v.Commodities[1] != p.Commodities[1] {
		t.Fatal("an untouched commodity was copied")
	}
	v.Commodities[0].Edges[graph.EdgeID(1<<20)] = EdgeParams{} // the test's own write, to see the map is one
	if _, same := p.Commodities[0].Edges[graph.EdgeID(1<<20)]; !same {
		t.Fatal("the written commodity's Edges map was copied")
	}
	delete(v.Commodities[0].Edges, graph.EdgeID(1<<20))
	if &v.Net.Capacity[0] != &p.Net.Capacity[0] || &v.Net.Bandwidth[0] != &p.Net.Bandwidth[0] || v.Net.G != p.Net.G {
		t.Fatal("a rate change copied part of the network")
	}
	if err := v.Net.SetCapacity("server1", 3); err != nil {
		t.Fatal(err)
	}
	if &v.Net.Capacity[0] == &p.Net.Capacity[0] || &v.Net.Bandwidth[0] != &p.Net.Bandwidth[0] {
		t.Fatal("a capacity change must copy the capacity vector and only that")
	}
}

// TestNewVersionReusingBuildsInTheSpare: a version built in a spare's
// slice equals its predecessor, writes into that slice and nowhere
// else, and leaves no pointer of the spare's behind its own length.
func TestNewVersionReusingBuildsInTheSpare(t *testing.T) {
	p := figure1WithSpareSink(t)
	before := mustMarshal(t, p)
	spare := p.NewVersion()
	if _, err := spare.AddCommodityFromJSON(s3Spec(t, spare)); err != nil {
		t.Fatal(err)
	}
	held := spare.Commodities[:cap(spare.Commodities)]
	v := p.NewVersionReusing(spare)
	if !bytes.Equal(mustMarshal(t, v), before) {
		t.Fatal("a version built in a spare does not equal its predecessor")
	}
	if &v.Commodities[0] != &held[0] {
		t.Fatal("the version did not build in the spare's slice")
	}
	for i := len(v.Commodities); i < len(held); i++ {
		if held[i] != nil {
			t.Fatalf("slot %d behind the version still holds the spare's commodity", i)
		}
	}
	if err := v.SetMaxRate("S1", 42); err != nil {
		t.Fatal(err)
	}
	if !v.RemoveCommodity("S2") {
		t.Fatal("S2 not found")
	}
	if !bytes.Equal(mustMarshal(t, p), before) || p.Commodities[0].MaxRate == 42 {
		t.Fatal("editing a version built in a spare moved its predecessor")
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnedProblemIsEditedInPlace: what parsing, generating or Clone
// returns owns its commodities, and a *Commodity held across a setter
// sees the edit, as callers outside the server rely on.
func TestOwnedProblemIsEditedInPlace(t *testing.T) {
	for _, p := range []*Problem{figure1ForClone(t), figure1ForClone(t).Clone(), figure1ForClone(t).NewVersion().Clone()} {
		c, _ := p.CommodityByName("S1")
		if err := p.SetMaxRate("S1", 7); err != nil {
			t.Fatal(err)
		}
		if err := p.SetUtility("S1", utility.Linear{Slope: 9}); err != nil {
			t.Fatal(err)
		}
		if c.MaxRate != 7 || c.Utility != (utility.Linear{Slope: 9}) {
			t.Fatalf("held commodity reads %+v after the edits", c)
		}
	}
}

// TestNameIndexFollowsMembership drives random arrivals, departures and
// renames through a chain of versions and checks every lookup against a
// scan, on every version still held.
func TestNameIndexFollowsMembership(t *testing.T) {
	net := NewNetwork()
	src, _ := net.AddServer("src", 10)
	const sinks = 12
	var edges [sinks]graph.EdgeID
	var ids [sinks]graph.NodeID
	for i := range ids {
		ids[i], _ = net.AddSink(fmt.Sprintf("t%d", i))
		edges[i], _ = net.AddLink(src, ids[i], 10)
	}
	rng := rand.New(rand.NewSource(3))
	versions := []*Problem{NewProblem(net)}
	check := func(p *Problem) {
		t.Helper()
		for i := 0; i < sinks; i++ {
			name := fmt.Sprintf("c%d", i)
			var want *Commodity
			for _, c := range p.Commodities {
				if c.Name == name {
					want = c
				}
			}
			if got, ok := p.CommodityByName(name); got != want || ok != (want != nil) {
				t.Fatalf("CommodityByName(%q) = %v, %v; a scan finds %v", name, got, ok, want)
			}
		}
	}
	for step := 0; step < 300; step++ {
		p := versions[len(versions)-1]
		if step%3 == 0 {
			p = p.NewVersion()
			versions = append(versions, p)
		}
		i := rng.Intn(sinks)
		name := fmt.Sprintf("c%d", i)
		_, present := p.CommodityByName(name)
		switch {
		case !present:
			// The name is free; its sink may be held under a rename.
			c, err := p.AddCommodity(name, src, ids[i], 1, utility.Linear{Slope: 1})
			if err == nil {
				err = p.SetEdge(c, edges[i], EdgeParams{Beta: 1, Cost: 1})
			} else if !errors.Is(err, ErrConflict) {
				t.Fatal(err)
			}
			if err != nil && !errors.Is(err, ErrConflict) {
				t.Fatal(err)
			}
		case rng.Intn(2) == 0:
			if !p.RemoveCommodity(name) {
				t.Fatalf("RemoveCommodity(%q) = false", name)
			}
		default:
			other := fmt.Sprintf("c%d", rng.Intn(sinks))
			_, taken := p.CommodityByName(other)
			err := p.RenameCommodity(name, other)
			if (err != nil) != (taken && other != name) {
				t.Fatalf("RenameCommodity(%q, %q) = %v with the name taken: %v", name, other, err, taken)
			}
		}
		check(p)
	}
	for _, p := range versions {
		check(p)
	}
}

// TestAddCommodityConflictNamesTheEarliestHolder: with both the name and
// the sink taken, the commodity that comes first decides the error, as
// the scan this replaced did.
func TestAddCommodityConflictNamesTheEarliestHolder(t *testing.T) {
	p := figure1ForClone(t) // S1 then S2
	s1, s2 := p.Commodities[0], p.Commodities[1]
	_, err := p.AddCommodity("S2", s1.Source, s1.SinkID, 1, utility.Linear{Slope: 1})
	if err == nil || !errors.Is(err, ErrConflict) || !bytes.Contains([]byte(err.Error()), []byte(`already used by "S1"`)) {
		t.Fatalf("name held by S2, sink by S1: %v", err)
	}
	_, err = p.AddCommodity("S1", s2.Source, s2.SinkID, 1, utility.Linear{Slope: 1})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte(`duplicate commodity name "S1"`)) {
		t.Fatalf("name held by S1, sink by S2: %v", err)
	}
	_, err = p.AddCommodity("S1", s1.Source, s1.SinkID, 1, utility.Linear{Slope: 1})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte(`duplicate commodity name "S1"`)) {
		t.Fatalf("name and sink both held by S1: %v", err)
	}
}

// TestMarshalWalksOwnEdgesInEdgeIDOrder pins the encoding to the one it
// replaced — probe the commodity's map once per network edge, in edge-ID
// order — byte for byte, with parameters attached in descending order
// and a commodity that has no edge at all.
func TestMarshalWalksOwnEdgesInEdgeIDOrder(t *testing.T) {
	p := figure1ForClone(t)
	for _, c := range p.Commodities {
		ids := c.SortedEdges(nil)
		params := make([]EdgeParams, len(ids))
		for i, e := range ids {
			params[i] = c.Edges[e]
		}
		c.Edges = make(map[graph.EdgeID]EdgeParams)
		for i := len(ids) - 1; i >= 0; i-- {
			c.Edges[ids[i]] = params[i]
		}
	}
	p.Commodities[1].Edges = map[graph.EdgeID]EdgeParams{}

	reference := func(c *Commodity) commodityJSON {
		uj, err := marshalUtility(c.Utility)
		if err != nil {
			t.Fatal(err)
		}
		cj := commodityJSON{
			Name: c.Name, Source: p.Net.Names[c.Source], Sink: p.Net.Names[c.SinkID],
			MaxRate: c.MaxRate, Utility: uj,
		}
		for e := 0; e < p.Net.G.NumEdges(); e++ {
			params, ok := c.Edges[graph.EdgeID(e)]
			if !ok {
				continue
			}
			edge := p.Net.G.Edge(graph.EdgeID(e))
			cj.Edges = append(cj.Edges, edgeParamJSON{
				From: p.Net.Names[edge.From], To: p.Net.Names[edge.To],
				Beta: params.Beta, Cost: params.Cost,
			})
		}
		return cj
	}

	var whole problemJSON
	if err := json.Unmarshal(mustMarshal(t, p), &whole); err != nil {
		t.Fatal(err)
	}
	whole.Commodities = nil
	for _, c := range p.Commodities {
		whole.Commodities = append(whole.Commodities, reference(c))
		want, err := json.Marshal(reference(c))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.MarshalCommodityJSON(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalCommodityJSON(%q):\n%s\nwant\n%s", c.Name, got, want)
		}
	}
	want, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustMarshal(t, p); !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON:\n%s\nwant\n%s", got, want)
	}
}

// TestLinkNamesFollowTheTopology: every link's resource name is
// "from->to", made once by AddLink. A version shares its predecessor's
// strings, a Clone copies the table, and a link a version adds is named
// in that version only.
func TestLinkNamesFollowTheTopology(t *testing.T) {
	p := figure1ForClone(t)
	for e := 0; e < p.Net.G.NumEdges(); e++ {
		edge := p.Net.G.Edge(graph.EdgeID(e))
		if got, want := p.Net.LinkName(graph.EdgeID(e)), p.Net.Names[edge.From]+"->"+p.Net.Names[edge.To]; got != want {
			t.Fatalf("link %d is named %q, want %q", e, got, want)
		}
	}
	v, c := p.NewVersion(), p.Clone()
	if unsafe.StringData(v.Net.LinkName(0)) != unsafe.StringData(p.Net.LinkName(0)) ||
		unsafe.StringData(c.Net.LinkName(0)) != unsafe.StringData(p.Net.LinkName(0)) {
		t.Fatal("a version or a clone made a link name of its own")
	}
	id, err := v.Net.AddServer("extra", 5)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := v.Net.NodeByName("server1")
	e, err := v.Net.AddLink(s1, id, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Net.LinkName(e); got != "server1->extra" {
		t.Fatalf("the added link is named %q", got)
	}
	if int(e) < len(p.Net.linkNames) {
		t.Fatal("adding a link to a version grew its predecessor's name table")
	}
}
