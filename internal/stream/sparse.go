package stream

import "fmt"

// potentials computes the node potentials g_n(j) over the member nodes
// of the loaded commodity into v.pot (local indexing), assigning each
// reachable node on its first in-edge in topo/edge order and checking
// Property 1 on every later in-edge — the same visit order as a
// full-graph filtered sweep, so the assigned products are identical.
func (v *commodityView) potentials(p *Problem, c *Commodity) error {
	ix := &v.ix
	v.pot, v.assigned = v.pot[:0], v.assigned[:0]
	for range ix.Nodes {
		v.pot, v.assigned = append(v.pot, 1), append(v.assigned, false)
	}
	if src := ix.LocalNode(c.Source); src >= 0 {
		v.assigned[src] = true // g_{s_j}(j) = 1 by definition
	}
	const tol = 1e-9
	for _, u := range v.order {
		if !v.reach[u] {
			continue
		}
		for _, le := range ix.Out(u) {
			h := ix.Head[le]
			want := v.pot[u] * c.Edges[ix.Edges[le]].Beta
			if v.assigned[h] {
				if relDiff(v.pot[h], want) > tol {
					return fmt.Errorf("property 1 violated at node %q: potentials %g vs %g",
						p.Net.name(ix.Nodes[h]), v.pot[h], want)
				}
				continue
			}
			v.pot[h] = want
			v.assigned[h] = true
		}
	}
	return nil
}
