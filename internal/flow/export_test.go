package flow

import (
	"fmt"

	"repro/internal/graph"
)

// Test-side accessors by global extended node and edge ID. The solver
// indexes T and Phi by member-local index; these translate for tests
// that name edges and nodes of the extended graph.

// At returns φ for commodity j on extended edge e, zero when e is not a
// member edge.
func (r *Routing) At(j int, e graph.EdgeID) float64 {
	if le := graph.Local(r.X.Sub[j].Edges, e); le >= 0 {
		return r.Phi[j][le]
	}
	return 0
}

// SetAt sets φ for commodity j on extended edge e, which must be a
// member edge: a fraction on a non-member edge cannot be represented.
func (r *Routing) SetAt(j int, e graph.EdgeID, v float64) {
	le := graph.Local(r.X.Sub[j].Edges, e)
	if le < 0 {
		panic(fmt.Sprintf("flow: SetAt: edge %d is not a member edge of commodity %d", e, j))
	}
	r.Phi[j][le] = v
}

// TAt returns t_n(j) for extended node n, zero when n is not a member
// node.
func (u *Usage) TAt(j int, n graph.NodeID) float64 {
	if ln := graph.Local(u.R.X.Sub[j].Nodes, n); ln >= 0 {
		return u.T[j][ln]
	}
	return 0
}

// ArriveAt returns the flow commodity j delivers to the head of
// extended edge e, zero when e is not a member edge.
func (u *Usage) ArriveAt(j int, e graph.EdgeID) float64 {
	if le := graph.Local(u.R.X.Sub[j].Edges, e); le >= 0 {
		return u.arrive(j, le)
	}
	return 0
}

// DeliveredRate returns the flow arriving at commodity j's sink through
// the real network (excluding the difference link), in sink units:
// g_sink(j)·a_j when Property 1 holds.
func (u *Usage) DeliveredRate(j int) float64 {
	sg := &u.R.X.Sub[j]
	total := 0.0
	for _, le := range sg.In(sg.Sink) {
		if le == sg.DiffLink {
			continue
		}
		total += u.arrive(j, le)
	}
	return total
}
