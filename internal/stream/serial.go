package stream

import (
	"encoding/json"
	"fmt"

	"repro/internal/graph"
	"repro/internal/utility"
)

// The JSON schema used by cmd/netgen and cmd/streamopt. Names (not
// integer IDs) identify nodes so files are diff-friendly and stable
// under regeneration.

type problemJSON struct {
	Nodes       []nodeJSON      `json:"nodes"`
	Links       []linkJSON      `json:"links"`
	Commodities []commodityJSON `json:"commodities"`
}

type nodeJSON struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"` // "processing" | "sink"
	Capacity float64 `json:"capacity,omitempty"`
}

type linkJSON struct {
	From      string  `json:"from"`
	To        string  `json:"to"`
	Bandwidth float64 `json:"bandwidth"`
}

type commodityJSON struct {
	Name    string          `json:"name"`
	Source  string          `json:"source"`
	Sink    string          `json:"sink"`
	MaxRate float64         `json:"maxRate"`
	Utility utilityJSON     `json:"utility"`
	Edges   []edgeParamJSON `json:"edges"`
}

type utilityJSON struct {
	Type   string  `json:"type"`
	Slope  float64 `json:"slope,omitempty"`
	Weight float64 `json:"weight,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	Shift  float64 `json:"shift,omitempty"`
	Alpha  float64 `json:"alpha,omitempty"`
	Cap    float64 `json:"cap,omitempty"`
}

type edgeParamJSON struct {
	From string  `json:"from"`
	To   string  `json:"to"`
	Beta float64 `json:"beta"`
	Cost float64 `json:"cost"`
}

// MarshalJSON implements json.Marshaler for Problem. The encoding is
// compact; cmd/netgen indents it for people to read.
func (p *Problem) MarshalJSON() ([]byte, error) {
	out := problemJSON{}
	g := p.Net.G
	for n := 0; n < g.NumNodes(); n++ {
		nj := nodeJSON{Name: p.Net.Names[n], Kind: p.Net.Kinds[n].String()}
		if p.Net.Kinds[n] == Processing {
			nj.Capacity = p.Net.Capacity[n]
		}
		out.Nodes = append(out.Nodes, nj)
	}
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(graph.EdgeID(e))
		out.Links = append(out.Links, linkJSON{
			From:      p.Net.Names[edge.From],
			To:        p.Net.Names[edge.To],
			Bandwidth: p.Net.Bandwidth[e],
		})
	}
	var edges []graph.EdgeID // one buffer for every commodity
	for _, c := range p.Commodities {
		edges = c.SortedEdges(edges)
		cj, err := p.commodityJSON(c, edges)
		if err != nil {
			return nil, err
		}
		out.Commodities = append(out.Commodities, cj)
	}
	return json.Marshal(out)
}

// ParseProblem decodes a problem from its JSON form and validates it.
func ParseProblem(data []byte) (*Problem, error) {
	var in problemJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("stream: parse problem: %w", err)
	}
	net := NewNetwork()
	for _, nj := range in.Nodes {
		var err error
		switch nj.Kind {
		case "processing":
			_, err = net.AddServer(nj.Name, nj.Capacity)
		case "sink":
			_, err = net.AddSink(nj.Name)
		default:
			err = fmt.Errorf("stream: node %q: unknown kind %q", nj.Name, nj.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, lj := range in.Links {
		from, ok := net.NodeByName(lj.From)
		if !ok {
			return nil, fmt.Errorf("stream: link: unknown node %q", lj.From)
		}
		to, ok := net.NodeByName(lj.To)
		if !ok {
			return nil, fmt.Errorf("stream: link: unknown node %q", lj.To)
		}
		if _, err := net.AddLink(from, to, lj.Bandwidth); err != nil {
			return nil, err
		}
	}
	p := NewProblem(net)
	for _, cj := range in.Commodities {
		if _, err := p.addCommodityJSON(cj); err != nil {
			return nil, err
		}
	}
	// A commodity-free instance is a legal live-server starting state
	// (admissiond idles until the first arrival), so only validate the
	// structural assumptions when there is something to check.
	if len(p.Commodities) > 0 {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func marshalUtility(u utility.Function) (utilityJSON, error) {
	switch v := u.(type) {
	case utility.Linear:
		return utilityJSON{Type: "linear", Slope: v.Slope}, nil
	case utility.Log:
		return utilityJSON{Type: "log", Weight: v.Weight, Scale: v.Scale}, nil
	case utility.Sqrt:
		return utilityJSON{Type: "sqrt", Weight: v.Weight, Shift: v.Shift}, nil
	case utility.AlphaFair:
		return utilityJSON{Type: "alphafair", Weight: v.Weight, Alpha: v.Alpha, Shift: v.Shift}, nil
	case utility.CappedLinear:
		return utilityJSON{Type: "cappedlinear", Slope: v.Slope, Cap: v.Cap}, nil
	default:
		return utilityJSON{}, fmt.Errorf("utility %q is not serializable", u.Name())
	}
}

func parseUtility(uj utilityJSON) (utility.Function, error) {
	switch uj.Type {
	case "linear":
		return utility.Linear{Slope: uj.Slope}, nil
	case "log":
		return utility.Log{Weight: uj.Weight, Scale: uj.Scale}, nil
	case "sqrt":
		return utility.Sqrt{Weight: uj.Weight, Shift: uj.Shift}, nil
	case "alphafair":
		return utility.AlphaFair{Weight: uj.Weight, Alpha: uj.Alpha, Shift: uj.Shift}, nil
	case "cappedlinear":
		return utility.CappedLinear{Slope: uj.Slope, Cap: uj.Cap}, nil
	default:
		return nil, fmt.Errorf("unknown utility type %q", uj.Type)
	}
}

// MarshalCommodityJSON serializes one commodity in the problem schema's
// "commodities" element form — exactly the JSON AddCommodityFromJSON
// (and POST /v1/commodities) accepts, with edges in deterministic edge-
// ID order. The scenario compiler uses this to turn a generated
// instance's commodities into arrival templates.
func (p *Problem) MarshalCommodityJSON(name string) ([]byte, error) {
	c, ok := p.CommodityByName(name)
	if !ok {
		return nil, fmt.Errorf("stream: unknown commodity %q", name)
	}
	cj, err := p.commodityJSON(c, c.SortedEdges(nil))
	if err != nil {
		return nil, err
	}
	return json.Marshal(cj)
}

// commodityJSON is c in the schema's form, its edges in the order given:
// c.SortedEdges, ascending edge ID. Walking the commodity's own edges is
// O(k log k) in their number, where probing c.Edges once per network
// edge made a whole-problem marshal O(J·|E|).
func (p *Problem) commodityJSON(c *Commodity, edges []graph.EdgeID) (commodityJSON, error) {
	uj, err := marshalUtility(c.Utility)
	if err != nil {
		return commodityJSON{}, fmt.Errorf("commodity %q: %w", c.Name, err)
	}
	cj := commodityJSON{
		Name:    c.Name,
		Source:  p.Net.Names[c.Source],
		Sink:    p.Net.Names[c.SinkID],
		MaxRate: c.MaxRate,
		Utility: uj,
	}
	if len(edges) > 0 { // none encodes as null, not []
		cj.Edges = make([]edgeParamJSON, 0, len(edges))
	}
	for _, e := range edges {
		edge, params := p.Net.G.Edge(e), c.Edges[e]
		cj.Edges = append(cj.Edges, edgeParamJSON{
			From: p.Net.Names[edge.From],
			To:   p.Net.Names[edge.To],
			Beta: params.Beta,
			Cost: params.Cost,
		})
	}
	return cj, nil
}

// ParseUtilityJSON decodes one utility spec from the same JSON form the
// problem schema uses ({"type":"log","weight":...}). It does not
// validate concavity/monotonicity against a rate range; callers that
// attach the result to a commodity go through Problem.SetUtility, which
// does.
func ParseUtilityJSON(data []byte) (utility.Function, error) {
	var uj utilityJSON
	if err := json.Unmarshal(data, &uj); err != nil {
		return nil, fmt.Errorf("stream: parse utility: %w", err)
	}
	return parseUtility(uj)
}

// AddCommodityFromJSON parses one commodity in the problem schema's
// "commodities" element form, registers it (source, sink, rate,
// utility, per-edge parameters), and validates it against the §2
// structural assumptions. On error the problem may hold the partially
// added commodity; callers that need transactional semantics apply this
// to a NewVersion or a Clone and swap on success (internal/server does
// exactly that).
func (p *Problem) AddCommodityFromJSON(data []byte) (*Commodity, error) {
	var cj commodityJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return nil, fmt.Errorf("stream: parse commodity: %w", err)
	}
	c, err := p.addCommodityJSON(cj)
	if err != nil {
		return nil, err
	}
	if err := p.validateCommodity(new(commodityView), c); err != nil {
		return nil, err
	}
	return c, nil
}

// addCommodityJSON registers one decoded commodity — source, sink,
// rate, utility, per-edge parameters — without the structural
// validation its two callers run differently: ParseProblem once over
// the whole problem, AddCommodityFromJSON on the new commodity alone.
func (p *Problem) addCommodityJSON(cj commodityJSON) (*Commodity, error) {
	src, ok := p.Net.NodeByName(cj.Source)
	if !ok {
		return nil, fmt.Errorf("stream: commodity %q: source %q: %w", cj.Name, cj.Source, ErrNotFound)
	}
	dst, ok := p.Net.NodeByName(cj.Sink)
	if !ok {
		return nil, fmt.Errorf("stream: commodity %q: sink %q: %w", cj.Name, cj.Sink, ErrNotFound)
	}
	u, err := parseUtility(cj.Utility)
	if err != nil {
		return nil, fmt.Errorf("stream: commodity %q: %w", cj.Name, err)
	}
	c, err := p.AddCommodity(cj.Name, src, dst, cj.MaxRate, u)
	if err != nil {
		return nil, err
	}
	for _, ej := range cj.Edges {
		from, ok := p.Net.NodeByName(ej.From)
		if !ok {
			return nil, fmt.Errorf("stream: commodity %q: node %q: %w", cj.Name, ej.From, ErrNotFound)
		}
		to, ok := p.Net.NodeByName(ej.To)
		if !ok {
			return nil, fmt.Errorf("stream: commodity %q: node %q: %w", cj.Name, ej.To, ErrNotFound)
		}
		e := p.Net.G.EdgeBetween(from, to)
		if e < 0 {
			return nil, fmt.Errorf("stream: commodity %q: link (%s,%s): %w", cj.Name, ej.From, ej.To, ErrNotFound)
		}
		if err := p.SetEdge(c, e, EdgeParams{Beta: ej.Beta, Cost: ej.Cost}); err != nil {
			return nil, err
		}
	}
	return c, nil
}
