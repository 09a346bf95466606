// Package flow implements §4's distributed problem formulation: routing
// fractions φ as control variables, the flow-balance equations with
// shrinkage (eq. 3), resource usage rates (eqs. 4–5), and the cost
// decomposition A = Σ_i A_i (eq. 8).
package flow

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/transform"
)

// Routing is a per-commodity routing-variable set φ: Phi[j][le] is the
// fraction of commodity j's traffic at the tail of member edge le
// (X.Sub[j] local edge indexing) that is processed over it. Rows are
// sized by each commodity's member edge count — O(member), not O(ne) —
// and sum to one over the member out-edges of every node that can carry
// commodity-j traffic.
type Routing struct {
	X   *transform.Extended
	Phi [][]float64
}

// NewZero returns an all-zero routing-variable set. The per-commodity
// rows share one flat backing array sized to the total member edge
// count, so a routing used as an iteration buffer stays
// cache-contiguous.
func NewZero(x *transform.Extended) *Routing {
	nc := x.NumCommodities()
	total := 0
	for j := 0; j < nc; j++ {
		total += x.Sub[j].NumEdges()
	}
	back := make([]float64, total)
	phi := make([][]float64, nc)
	off := 0
	for j := 0; j < nc; j++ {
		end := off + x.Sub[j].NumEdges()
		phi[j] = back[off:end:end]
		off = end
	}
	return &Routing{X: x, Phi: phi}
}

// NewInitial returns the paper-faithful starting point (DESIGN.md §6):
// each dummy node routes everything to its difference link (admitted
// rate 0, so utility climbs monotonically from zero as in Figure 4),
// and every other node splits uniformly across its member out-edges.
func NewInitial(x *transform.Extended) *Routing {
	r := NewZero(x)
	for j := range x.Commodities {
		r.initialRow(j)
	}
	return r
}

// initialRow writes NewInitial's row for commodity j over a zero row.
func (r *Routing) initialRow(j int) {
	sg := &r.X.Sub[j]
	for l := int32(0); l < int32(sg.NumNodes()); l++ {
		if l == sg.Sink {
			continue
		}
		if l == sg.Dummy {
			r.Phi[j][sg.DiffLink] = 1
			continue
		}
		outs := sg.Out(l)
		for _, le := range outs {
			r.Phi[j][le] = 1 / float64(len(outs))
		}
	}
}

// AdmittedRate returns a_j: the rate commodity j's dummy node sends
// into the real network over the input link.
func (r *Routing) AdmittedRate(j int) float64 {
	return r.X.Commodities[j].MaxRate * r.Phi[j][r.X.Sub[j].InputLink]
}

// Clone deep-copies the routing set.
func (r *Routing) Clone() *Routing {
	c := NewZero(r.X)
	for j := range r.Phi {
		copy(c.Phi[j], r.Phi[j])
	}
	return c
}

// ErrTopologyChanged is wrapped by Rebind when the target extended
// problem has a different shape than the one the routing was built on.
// Callers that warm-start opportunistically (the admission server, the
// dynamic-tracking experiments) match it with errors.Is to tell
// "commodities or network elements changed — a cold start is the
// expected recovery" apart from a genuine bug.
var ErrTopologyChanged = errors.New("flow: extended topology changed")

// Rebind deep-copies the routing set onto another extended problem with
// the same topology (same node/edge/commodity layout and identical
// per-commodity member edge sets). This is how a converged routing
// warm-starts the optimizer after problem parameters (offered rates,
// capacities) change: the φ values carry over, the evaluation context
// does not. A shape mismatch wraps ErrTopologyChanged and names the
// dimension that moved; the member-set comparison is O(total member),
// cheaper than the value copy it gates.
func (r *Routing) Rebind(x *transform.Extended) (*Routing, error) {
	if nx, nr := x.NumCommodities(), r.X.NumCommodities(); nx != nr {
		return nil, fmt.Errorf("%w: target has %d commodities, routing was built for %d",
			ErrTopologyChanged, nx, nr)
	}
	if nx, nr := x.NumNodes(), r.X.NumNodes(); nx != nr || x.NumEdges() != r.X.NumEdges() {
		return nil, fmt.Errorf("%w: target has %d extended nodes and %d edges, routing was built for %d and %d",
			ErrTopologyChanged, nx, x.NumEdges(), nr, r.X.NumEdges())
	}
	for j := range x.Sub {
		if !slices.Equal(x.Sub[j].Edges, r.X.Sub[j].Edges) {
			return nil, fmt.Errorf("%w: commodity %d member edge set changed",
				ErrTopologyChanged, j)
		}
	}
	c := NewZero(x)
	for j := range r.Phi {
		copy(c.Phi[j], r.Phi[j])
	}
	return c, nil
}

// Carry is the warm start across a change of membership: a routing on
// x in which every commodity x continues from r's problem
// (transform.Extended.Continues) keeps its row, its dummy split moved by
// HoldAdmitted from the old offered rate to the new one, and every other
// commodity starts from NewInitial's row. The result is valid and
// loop-free wherever r is. It wraps ErrTopologyChanged when x continues
// none of r's commodities.
func (r *Routing) Carry(x *transform.Extended) (*Routing, error) {
	from := x.Continues(r.X)
	c := NewZero(x)
	carried := 0
	for j, k := range from {
		if k < 0 {
			c.initialRow(j)
			continue
		}
		copy(c.Phi[j], r.Phi[k])
		c.HoldAdmitted(j, r.X.Commodities[k].MaxRate, x.Commodities[j].MaxRate)
		carried++
	}
	if carried == 0 {
		return nil, fmt.Errorf("%w: none of %d commodities continues one of the routing's %d",
			ErrTopologyChanged, len(from), r.X.NumCommodities())
	}
	return c, nil
}

// HoldAdmitted moves commodity j's dummy split for a change of its
// offered rate λ from one value to another in rate space rather than in
// φ: the admitted rate a_j = from·φ_in stays what it was when the new λ
// still covers it and becomes λ when it does not. Left alone, φ_in would
// scale a_j — and the commodity's flow at every node — by to/from; held,
// no node carries more of the commodity than before, and when a_j < λ an
// optimal routing stays optimal (the §3 transform makes a_j the decision
// and λ only its bound).
func (r *Routing) HoldAdmitted(j int, from, to float64) {
	if to == from || to <= 0 {
		return
	}
	sg := &r.X.Sub[j]
	in := min(from*r.Phi[j][sg.InputLink]/to, 1)
	r.Phi[j][sg.InputLink], r.Phi[j][sg.DiffLink] = in, 1-in
}

// Validate checks the §4 routing-decision conditions: φ ≥ 0 and finite,
// and Σ_k φ_ik(j) = 1 at every non-sink node with member out-edges.
// (φ on non-member edges is unrepresentable in the sparse rows, so the
// old off-member check is structural now.)
func (r *Routing) Validate() error {
	x := r.X
	const tol = 1e-9
	for j := range x.Commodities {
		sg := &x.Sub[j]
		for le, v := range r.Phi[j] {
			if v < -tol || math.IsNaN(v) {
				return fmt.Errorf("flow: commodity %d edge %d: phi = %g", j, sg.Edges[le], v)
			}
		}
		for l := int32(0); l < int32(sg.NumNodes()); l++ {
			if l == sg.Sink {
				continue
			}
			outs := sg.Out(l)
			sum, hasMember := 0.0, len(outs) > 0
			for _, le := range outs {
				sum += r.Phi[j][le]
			}
			if hasMember && math.Abs(sum-1) > 1e-6 {
				return fmt.Errorf("flow: commodity %d node %q: phi sums to %g", j, x.Name(sg.Nodes[l]), sum)
			}
		}
	}
	return nil
}
