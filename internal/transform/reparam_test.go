package transform

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/randnet"
	"repro/internal/stream"
	"repro/internal/utility"
)

// TestReparameterizeMatchesBuild: for every change of parameters alone —
// made on a shared version, where untouched commodities keep their
// pointers, and on a deep Clone, where nothing does — Changes says so,
// and Reparameterize leaves x with the capacities, commodities and
// subset positions a Build of the changed problem has, and with nothing
// left to change.
func TestReparameterizeMatchesBuild(t *testing.T) {
	base, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	if err != nil {
		t.Fatal(err)
	}
	incl := []int{1, 3, 4, 6}
	link := base.Net.G.Edge(2)
	change := func(p *stream.Problem) {
		t.Helper()
		for _, err := range []error{
			p.SetMaxRate(p.Commodities[3].Name, 1.5*p.Commodities[3].MaxRate),
			p.SetUtility(p.Commodities[4].Name, utility.Log{Weight: 3, Scale: 1}),
			p.SetMaxRate(p.Commodities[0].Name, 2), // not in the subset
			p.Net.SetCapacity(p.Net.Names[0], 0.5*p.Net.Capacity[0]),
			p.Net.SetBandwidth(p.Net.Names[link.From], p.Net.Names[link.To], 0.25*p.Net.Bandwidth[2]),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, derive := range map[string]func(*stream.Problem) *stream.Problem{
		"version": (*stream.Problem).NewVersion,
		"clone":   (*stream.Problem).Clone,
	} {
		t.Run(name, func(t *testing.T) {
			x := mustBuild(t, base, Options{Commodities: incl})
			p := derive(base)
			change(p)
			// A departure ahead of the subset moves its positions, nothing else.
			if !p.RemoveCommodity(p.Commodities[0].Name) {
				t.Fatal("remove failed")
			}
			shifted := []int{0, 2, 3, 5}
			if ch, err := x.Changes(p, shifted); ch != Parameters || err != nil {
				t.Fatalf("Changes = %v, %v", ch, err)
			}
			x.Reparameterize(p, shifted)
			if ch, err := x.Changes(p, shifted); ch != Unchanged || err != nil {
				t.Fatalf("after Reparameterize: Changes = %v, %v", ch, err)
			}
			want := mustBuild(t, p, Options{Commodities: shifted})
			if !reflect.DeepEqual(x.Capacity, want.Capacity) {
				t.Error("capacities differ from a build's")
			}
			if !reflect.DeepEqual(x.Commodities, want.Commodities) {
				t.Errorf("commodities differ from a build's:\n%+v\n%+v", x.Commodities, want.Commodities)
			}
			if !reflect.DeepEqual(x.Sub, want.Sub) {
				t.Error("subgraphs differ from a build's")
			}
		})
	}
}

// TestParametersOnlyRefusesStructure: whatever a routing or a workspace
// is shaped by, or the node names and order the shared prefix is laid
// out from, is not a parameter.
func TestParametersOnlyRefusesStructure(t *testing.T) {
	base, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	if err != nil {
		t.Fatal(err)
	}
	incl := []int{1, 3, 4, 6}
	x := mustBuild(t, base, Options{Commodities: incl})
	for name, p := range map[string]*stream.Problem{"the problem x was built from": base, "a version of it": base.NewVersion()} {
		if ch, err := x.Changes(p, incl); ch != Unchanged || err != nil {
			t.Fatalf("%s: Changes = %v, %v", name, ch, err)
		}
	}
	cases := map[string]func(p *stream.Problem) []int{
		"another subset":     func(*stream.Problem) []int { return []int{1, 3, 4, 7} },
		"a smaller subset":   func(*stream.Problem) []int { return []int{1, 3, 4} },
		"index out of range": func(*stream.Problem) []int { return []int{1, 3, 4, 8} },
		"an edge parameter": func(p *stream.Problem) []int {
			c := p.Commodities[3]
			for e, params := range c.Edges {
				params.Cost *= 2
				c.Edges[e] = params
				break
			}
			return incl
		},
		"an edge gone": func(p *stream.Problem) []int {
			c := p.Commodities[3]
			for e := range c.Edges {
				delete(c.Edges, e)
				break
			}
			return incl
		},
		"a rename": func(p *stream.Problem) []int {
			if err := p.RenameCommodity(p.Commodities[4].Name, "renamed"); err != nil {
				t.Fatal(err)
			}
			return incl
		},
		"a departure inside the subset": func(p *stream.Problem) []int {
			p.RemoveCommodity(p.Commodities[3].Name)
			return incl
		},
		"a new node": func(p *stream.Problem) []int {
			if _, err := p.Net.AddServer("extra", 1); err != nil {
				t.Fatal(err)
			}
			return incl
		},
		"a new link": func(p *stream.Problem) []int {
			if _, err := p.Net.AddLink(0, 1, 1); err != nil {
				t.Fatal(err)
			}
			return incl
		},
	}
	for name, restructure := range cases {
		p := base.Clone()
		if ch, _ := x.Changes(p, restructure(p)); ch != Structure {
			t.Errorf("%s passed for a change of parameters", name)
		}
	}
}

// TestContinues: a commodity continues its namesake in an earlier build
// when it is the same *stream.Commodity or one of the same structure,
// whatever position either holds — after a departure ahead of it, or a
// departure and re-arrival that moves it last — and not when an edge
// parameter changed; the pairs it reports have member subgraphs laid out
// alike.
func TestContinues(t *testing.T) {
	base, err := randnet.Generate(randnet.Config{Seed: 5, Nodes: 32, Layers: 4, Commodities: 8})
	if err != nil {
		t.Fatal(err)
	}
	prev := mustBuild(t, base, Options{})
	spec := func(name string, costScale float64) []byte {
		t.Helper()
		b, err := base.MarshalCommodityJSON(name)
		if err != nil {
			t.Fatal(err)
		}
		var c map[string]any
		if err := json.Unmarshal(b, &c); err != nil {
			t.Fatal(err)
		}
		edge := c["edges"].([]any)[0].(map[string]any)
		edge["cost"] = costScale * edge["cost"].(float64)
		if b, err = json.Marshal(c); err != nil {
			t.Fatal(err)
		}
		return b
	}
	name := func(i int) string { return base.Commodities[i].Name }

	p := base.NewVersion()
	p.RemoveCommodity(name(0))
	for _, back := range []struct {
		i     int
		scale float64
	}{{2, 1}, {5, 1.5}} {
		p.RemoveCommodity(name(back.i))
		if _, err := p.AddCommodityFromJSON(spec(name(back.i), back.scale)); err != nil {
			t.Fatal(err)
		}
	}
	x := mustBuild(t, p, Options{})
	want := map[string]int{}
	for k := 1; k < len(base.Commodities); k++ {
		want[name(k)] = k
	}
	want[name(5)] = -1
	for j, k := range x.Continues(prev) {
		n := x.Commodities[j].Name
		if k != want[n] {
			t.Errorf("%s continues %d, want %d", n, k, want[n])
		}
		if k >= 0 && !slices.Equal(x.Sub[j].Beta, prev.Sub[k].Beta) {
			t.Errorf("%s: member edges laid out unlike those of the commodity it continues", n)
		}
	}
	// A deep copy of the network is a different topology by identity
	// only: the pairs are found by comparing it.
	if got, want := mustBuild(t, p.Clone(), Options{}).Continues(prev), x.Continues(prev); !slices.Equal(got, want) {
		t.Errorf("on a cloned network Continues = %v, want %v", got, want)
	}
}
