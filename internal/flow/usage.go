package flow

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/transform"
)

// Usage is the traffic and resource state induced by a routing set:
// the unique solution of the flow-balance equations (eq. 3) plus the
// resource usage rates of eqs. (4)–(5). It stores what the solver reads
// on every iteration: T, per commodity in the commodity's Subgraph
// local node indexing, and FNode, which spans the full extended node
// range because it accumulates cross-commodity flow at shared nodes.
// Per-edge quantities are derived from T and the routing on demand
// (EdgeFlow, ArriveAt), bit for bit what the forward sweep computed.
type Usage struct {
	R *Routing
	// T[j][ln] is t_n(j): the expected commodity-j traffic rate at
	// member node ln (local index), in node-local input units.
	T [][]float64
	// FNode[n] is f_n = Σ_e Σ_j EdgeFlow over e ∈ out(n) (eq. 5),
	// indexed by extended node ID.
	FNode []float64

	// x is the extended problem NewUsage sized the workspace for, and
	// tBack the flat backing array of the T rows (Σ member nodes), which
	// EvaluateInto zeroes with one clear() instead of reallocating.
	x     *transform.Extended
	tBack []float64
}

// NewUsage allocates a reusable evaluation workspace for the extended
// problem x: per-commodity T rows sized by each commodity's member node
// count (sliced from one flat array, so repeated EvaluateInto calls
// touch contiguous memory and allocate nothing), plus a full-width
// FNode accumulator. Total memory is O(Σ member nodes), not O(J·n).
func NewUsage(x *transform.Extended) *Usage {
	nc := x.NumCommodities()
	totalN := 0
	for j := 0; j < nc; j++ {
		totalN += x.Sub[j].NumNodes()
	}
	u := &Usage{
		T:     make([][]float64, nc),
		FNode: make([]float64, x.G.NumNodes()),
		x:     x,
		tBack: make([]float64, totalN),
	}
	off := 0
	for j := 0; j < nc; j++ {
		end := off + x.Sub[j].NumNodes()
		u.T[j] = u.tBack[off:end:end]
		off = end
	}
	return u
}

// ErrWorkspaceShape is wrapped by the error EvaluateInto panics with
// when a workspace does not match the routing's extended problem —
// wrong commodity count, node count, or per-commodity member row sizes.
// The engines own their workspace, sized by NewUsage for the problem
// they were built on, so a mismatch is a programming error.
var ErrWorkspaceShape = errors.New("flow: usage workspace shape mismatch")

// shapeErr builds the detailed ErrWorkspaceShape wrapper.
func shapeErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s (workspace from NewUsage on a different or rebuilt extended problem?)",
		ErrWorkspaceShape, fmt.Sprintf(format, args...))
}

// checkShape verifies that u was allocated for x's per-commodity member
// sizes: at once when NewUsage sized u for x itself (an extended
// problem's shapes never change after Build), in O(commodities)
// otherwise.
func (u *Usage) checkShape(x *transform.Extended) error {
	if u.x == x {
		return nil
	}
	nc, nn := x.NumCommodities(), x.G.NumNodes()
	if len(u.T) != nc {
		return shapeErr("workspace has %d commodity rows, problem has %d", len(u.T), nc)
	}
	if len(u.FNode) != nn {
		return shapeErr("workspace FNode spans %d nodes, problem has %d", len(u.FNode), nn)
	}
	for j := 0; j < nc; j++ {
		if n := x.Sub[j].NumNodes(); len(u.T[j]) != n {
			return shapeErr("commodity %d row sized for %d nodes, member subgraph has %d", j, len(u.T[j]), n)
		}
	}
	return nil
}

// Evaluate solves the flow-balance equations by a forward sweep in
// topological order of each commodity's member DAG (the routing set is
// loop-free by construction, so eq. 3 has a unique solution computable
// in one pass). It allocates a fresh Usage per call; iteration loops
// use a NewUsage workspace with EvaluateInto instead.
func Evaluate(r *Routing) *Usage {
	u := NewUsage(r.X)
	EvaluateInto(u, r)
	return u
}

// EvaluateInto runs the forward sweep into the preallocated workspace
// u, which must have been allocated by NewUsage for r's extended
// problem (per-commodity member-sized rows plus the full-width FNode
// accumulator). The workspace is zeroed and refilled; the result is
// bit-identical to Evaluate(r). After the call u.R is r. A mismatched
// workspace panics with an error wrapping ErrWorkspaceShape.
func EvaluateInto(u *Usage, r *Routing) {
	if err := u.checkShape(r.X); err != nil {
		panic(err)
	}
	evaluateInto(u, r)
}

// evaluateInto is the shape-checked forward sweep. Per commodity it
// walks the member subgraph in local topo order, scattering node usage
// into the shared FNode accumulator in exactly the (commodity, topo
// position, ascending edge) order the dense filtered scan used, so
// floating-point accumulation — and therefore whole solver
// trajectories — stays bitwise-identical to the dense representation.
// The per-edge terms it adds, (t·φ)·c into FNode and (t·φ)·β into the
// head's T, are what EdgeFlow and arrive recompute.
func evaluateInto(u *Usage, r *Routing) {
	x := r.X
	nc := x.NumCommodities()
	clear(u.tBack)
	clear(u.FNode)
	u.R = r
	for j := 0; j < nc; j++ {
		sg := &x.Sub[j]
		t := u.T[j]
		cost, beta, phi := sg.Cost, sg.Beta, r.Phi[j]
		t[sg.Dummy] = x.Commodities[j].MaxRate // r_i(j) of eq. 2
		for _, ln := range sg.Topo {
			tn := t[ln]
			if tn == 0 || ln == sg.Sink {
				continue
			}
			n := sg.Nodes[ln]
			for _, le := range sg.Out(ln) {
				p := phi[le]
				if p == 0 {
					continue
				}
				// The conversions round each product before it is added
				// (no fused multiply-add), so EdgeFlow and arrive
				// reproduce the terms exactly on every platform.
				t[sg.Head[le]] += float64(tn * p * beta[le])
				u.FNode[n] += float64(tn * p * cost[le])
			}
		}
	}
}

// EdgeFlow returns the node-resource usage commodity j puts on member
// edge le (local index) at its tail: t_i(j)·φ_e(j)·c_e(j), eq. 4 per
// commodity, with the forward sweep's association and its zeros — 0
// wherever the sweep added nothing (t_i(j) = 0, φ_e(j) = 0, or a tail
// at the sink). O(1).
func (u *Usage) EdgeFlow(j int, le int32) float64 {
	sg := &u.R.X.Sub[j]
	return u.perEdge(j, sg, le, sg.Cost)
}

// arrive is EdgeFlow's twin for the flow member edge le delivers to its
// head, t_i(j)·φ_e(j)·β_e(j).
func (u *Usage) arrive(j int, le int32) float64 {
	sg := &u.R.X.Sub[j]
	return u.perEdge(j, sg, le, sg.Beta)
}

// perEdge is (t_tail·φ_e)·k_e as the forward sweep computed it, or 0
// where the sweep skipped the edge.
func (u *Usage) perEdge(j int, sg *transform.Subgraph, le int32, k []float64) float64 {
	tail := sg.Tail[le]
	tn, p := u.T[j][tail], u.R.Phi[j][le]
	if tn == 0 || p == 0 || tail == sg.Sink {
		return 0
	}
	return tn * p * k[le]
}

// TAt returns t_n(j) for extended node n, zero when n is not a member
// node. O(log member nodes) — for cold paths and tests.
func (u *Usage) TAt(j int, n graph.NodeID) float64 {
	if ln := u.R.X.Sub[j].LocalNode(n); ln >= 0 {
		return u.T[j][ln]
	}
	return 0
}

// ArriveAt returns the flow commodity j delivers to the head of
// extended edge e, zero when e is not a member edge. O(log member
// edges).
func (u *Usage) ArriveAt(j int, e graph.EdgeID) float64 {
	if le := u.R.X.Sub[j].LocalEdge(e); le >= 0 {
		return u.arrive(j, le)
	}
	return 0
}

// AdmittedRate returns a_j: the rate the dummy node sends into the real
// network over the input link.
func (u *Usage) AdmittedRate(j int) float64 {
	x := u.R.X
	return x.Commodities[j].MaxRate * u.R.Phi[j][x.Sub[j].InputLink]
}

// RejectedRate returns λ_j − a_j, the flow on the difference link.
func (u *Usage) RejectedRate(j int) float64 {
	x := u.R.X
	return x.Commodities[j].MaxRate * u.R.Phi[j][x.Sub[j].DiffLink]
}

// Utility returns Σ_j U_j(a_j), the quantity the paper maximizes.
func (u *Usage) Utility() float64 {
	total := 0.0
	for j := range u.R.X.Commodities {
		total += u.R.X.Commodities[j].Utility.Value(u.AdmittedRate(j))
	}
	return total
}

// UtilityLoss returns Y = Σ_j Y_j(λ_j − a_j).
func (u *Usage) UtilityLoss() float64 {
	x := u.R.X
	total := 0.0
	for j := range x.Commodities {
		c := &x.Commodities[j]
		total += x.LossValue(j, c.DiffLink, u.EdgeFlow(j, x.Sub[j].DiffLink))
	}
	return total
}

// PenaltyCost returns ε·D = Σ_i ε·D_i(f_i), summed in ascending node
// order over the shared prefix, which holds every capacitated node
// (every other term is +0).
func (u *Usage) PenaltyCost() float64 {
	x := u.R.X
	total := 0.0
	for n, f := range u.FNode[:x.SharedNodes] {
		total += x.PenaltyValue(graph.NodeID(n), f)
	}
	return total
}

// TotalCost returns A = Y + ε·D, the objective the routing problem
// minimizes (§3).
func (u *Usage) TotalCost() float64 {
	return u.UtilityLoss() + u.PenaltyCost()
}

// Feasible reports whether every capacitated node satisfies f_i ≤ C_i
// (eq. 6), with slack reporting the minimum remaining headroom ratio
// min_i (C_i − f_i)/C_i over capacitated nodes. Under sharding the
// check is at the global operating point: own flow plus the external
// usage installed on the extended problem (nil External adds nothing).
func (u *Usage) Feasible() (ok bool, slack float64) {
	return feasible(u.R.X, u.FNode, u.R.X.External)
}

// feasible is the one feasibility loop: f_i = usage_i + ext_i against
// C_i at every capacitated node of x that usage covers, in ascending
// order. The capacitated nodes all lie in the shared prefix, so the
// loop stops there. ext may be shorter than usage or nil; it adds
// nothing where it has no entry.
func feasible(x *transform.Extended, usage, ext []float64) (ok bool, slack float64) {
	ok, slack = true, 1.0
	for n, f := range usage[:min(len(usage), x.SharedNodes)] {
		c := x.Capacity[n]
		if math.IsInf(c, 1) {
			continue
		}
		if n < len(ext) {
			f += ext[n]
		}
		s := (c - f) / c
		if s < slack {
			slack = s
		}
		if f > c+1e-9 {
			ok = false
		}
	}
	return ok, slack
}

// SharedUsage copies this routing set's flow through the shared node
// prefix (originals + bandwidth nodes) into dst, which must have length
// X.SharedNodes. This is the usage summary a shard reports to the
// shard coordinator: dummy-node flow is shard-private and
// uncapacitated, so it never crosses the boundary.
func (u *Usage) SharedUsage(dst []float64) {
	if len(dst) != u.R.X.SharedNodes {
		panic("flow: SharedUsage dst not sized to SharedNodes")
	}
	copy(dst, u.FNode[:len(dst)])
}

// MergeShared sums per-shard shared-usage vectors into dst, the global
// congestion view over the shared node prefix. Parts are accumulated in
// slice order so the reduction is deterministic for a fixed shard
// ordering.
func MergeShared(dst []float64, parts ...[]float64) {
	clear(dst)
	for _, p := range parts {
		if len(p) != len(dst) {
			panic("flow: MergeShared part length mismatch")
		}
		for i, v := range p {
			dst[i] += v
		}
	}
}

// FeasibleShared reports feasibility of a merged global usage vector
// against the shared-prefix capacities of x (same tolerance and slack
// convention as Usage.Feasible, restricted to the shared nodes).
func FeasibleShared(x *transform.Extended, merged []float64) (ok bool, slack float64) {
	return feasible(x, merged, nil)
}

// DeliveredRate returns the flow arriving at commodity j's sink through
// the real network (excluding the difference link), in sink units: this
// is g_sink(j)·a_j when Property 1 holds.
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
