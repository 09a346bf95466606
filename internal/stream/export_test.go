package stream

// Potentials computes the node potentials g_n(j) of §2: the product of
// β along any path from the source to n. It returns an error if two
// paths disagree, i.e. Property 1 is violated. Unreachable nodes get
// potential 1, matching the paper's convention. Validation runs the
// same sweep on the commodity's sparse local index; this scatters it
// into a full-width vector for tests that name nodes by ID.
func (p *Problem) Potentials(c *Commodity) ([]float64, error) {
	var v commodityView
	if err := v.load(p.Net.G, c); err != nil {
		return nil, err
	}
	if err := v.potentials(p, c); err != nil {
		return nil, err
	}
	pot := make([]float64, p.Net.G.NumNodes())
	for i := range pot {
		pot[i] = 1
	}
	for l, n := range v.ix.Nodes {
		if v.reach[l] {
			pot[n] = v.pot[l]
		}
	}
	return pot, nil
}
