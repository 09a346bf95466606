package gradient

import (
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/transform"
	"repro/internal/utility"
)

// waveScratch is one worker's buffers for the sweep→update chain of one
// commodity at a time, sized for the largest member subgraph. Nothing
// in it outlives the commodity it was filled for — the chain's only
// per-commodity output is the new φ row — so a worker reuses the same
// few cache lines for every commodity it runs.
type waveScratch struct {
	rho    []float64
	linkD  []float64
	tagged []bool
	// prev holds the commodity's φ_{k−1} entries at its branch nodes'
	// out-edges while the wave adds the heavy-ball term (mu > 0): the
	// engine's spare routing holds them on entry, and seeding the new
	// row overwrites them.
	prev []float64
}

// arena owns one engine's wave workspaces and the worker pool that runs
// the §5 waves. The paper's protocol phases are independent across
// commodities — each commodity's marginal-cost wave and update read
// only its own usage row and the node prices and write only its own φ
// row — so the pool parallelizes them without changing a single bit of
// the trajectory.
type arena struct {
	x *transform.Extended
	// price is ε·D'_n at the global operating point per extended node,
	// zero at every uncapacitated one: the engine writes it when it
	// evaluates a routing (evaluate), CheckStationarity with
	// fillNodePrices.
	price   []float64
	scratch []waveScratch // one per worker
	cursor  atomic.Int64  // next commodity for the pool to claim

	// messages and rounds are what one marginal-cost wave costs the
	// distributed protocol: one ρ broadcast per member edge, and as many
	// sequential rounds as the deepest member DAG. Topology constants.
	messages, rounds int
}

func newArena(x *transform.Extended, workers int) *arena {
	a := &arena{x: x, price: make([]float64, x.NumNodes())}
	maxN, maxE := 0, 0
	for j := range x.Sub {
		sg := &x.Sub[j]
		maxN, maxE = max(maxN, sg.NumNodes()), max(maxE, sg.NumEdges())
		a.messages += sg.NumEdges()
		a.rounds = max(a.rounds, sg.Depth())
	}
	a.scratch = make([]waveScratch, max(1, min(workers, len(x.Sub))))
	for i := range a.scratch {
		a.scratch[i] = waveScratch{
			rho:    make([]float64, maxN),
			linkD:  make([]float64, maxE),
			tagged: make([]bool, maxN),
			prev:   make([]float64, maxE),
		}
	}
	return a
}

// runWave is one iteration's pass over the commodities against the
// evaluated usage u, whose node prices a.price holds. For each
// commodity j, in order, it runs the marginal-cost sweep with the
// loop-freedom tags (when blocking is true), the routing update Γ into
// next's row j — plus, with mu > 0, the heavy-ball term
// mu·(φ_k − φ_{k−1}), for which next must hold φ_{k−1} on entry — and
// then the flow forecast of that new row into u itself: T[j] is
// overwritten only once row j's sweep and Γ have read it, and FNode,
// which the sweep never reads (the prices already summarize it), is
// cleared before the first row. The same visit writes the new row's
// admitted rate into admitted and adds its utility and utility-loss
// terms, in commodity order, to the sums it returns. On return u is
// the forecast of next (u.R is next) and one node pass (evaluate)
// judges it.
//
// next must equal u.R at every entry outside a branch node's
// out-edges: Γ writes only those (see gamma).
//
// With more than one worker the sweeps and Γ run concurrently on a
// bounded pool, and the forecasts follow in one serial pass in
// commodity order. No floating-point value crosses between commodities
// in the parallel part, and the serial part adds into FNode and the two
// sums in the sequential order, so the result is bitwise-identical to
// the sequential execution.
func (a *arena) runWave(u *flow.Usage, eta, mu float64, blocking bool, next *flow.Routing, admitted []float64) (utility, loss float64) {
	clear(u.FNode)
	if len(a.scratch) > 1 {
		a.cursor.Store(0)
		var wg sync.WaitGroup
		wg.Add(len(a.scratch))
		for i := range a.scratch {
			w := &a.scratch[i]
			go func() {
				defer wg.Done()
				for {
					j := int(a.cursor.Add(1)) - 1
					if j >= len(a.x.Sub) {
						return
					}
					a.update(w, u, j, eta, mu, blocking, next)
				}
			}()
		}
		wg.Wait()
		for j := range a.x.Sub {
			u.ForecastRow(next, j)
			utility, loss = measureRow(u, next, j, admitted, utility, loss)
		}
	} else {
		w := &a.scratch[0]
		for j := range a.x.Sub {
			a.update(w, u, j, eta, mu, blocking, next)
			u.ForecastRow(next, j)
			utility, loss = measureRow(u, next, j, admitted, utility, loss)
		}
	}
	u.R = next
	return utility, loss
}

// update runs commodity j's sweep and Γ in the worker scratch w,
// writing the new φ row into next.
func (a *arena) update(w *waveScratch, u *flow.Usage, j int, eta, mu float64, blocking bool, next *flow.Routing) {
	var tagged []bool
	if blocking {
		tagged = w.tagged
	}
	sweep(u, j, a.price, w.rho, w.linkD, tagged, eta)
	gamma(u, j, w.linkD, tagged, eta, mu, w.prev, next.Phi[j])
}

// measureRow adds routing r's commodity j, whose forecast u.T[j]
// holds, to a measurement in progress: a_j into admitted[j], U_j(a_j)
// to sum and Y_j(λ_j − a_j) to loss — the operands Usage.Utility and
// Usage.UtilityLoss add, so sums over j in order are theirs bit for
// bit. A Linear utility, the family of the paper's §6 throughput
// objective, is called on its concrete type (the same doubles, without
// three interface calls); every other family goes through the
// interface.
func measureRow(u *flow.Usage, r *flow.Routing, j int, admitted []float64, sum, loss float64) (float64, float64) {
	a := r.AdmittedRate(j)
	admitted[j] = a
	c := &r.X.Commodities[j]
	if lin, ok := c.Utility.(utility.Linear); ok {
		return sum + lin.Value(a), loss + c.Loss.LinearValue(lin, u.DiffFlow(r, j))
	}
	return sum + c.Utility.Value(a), loss + u.RowLoss(r, j)
}
