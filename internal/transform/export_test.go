package transform

import "repro/internal/graph"

// OrigEdge returns the link edge e is a half of, or graph.Invalid.
func (x *Extended) OrigEdge(e graph.EdgeID) graph.EdgeID {
	if int(e) < 2*(x.SharedNodes-len(x.names)) {
		return e / 2
	}
	return graph.Invalid
}
