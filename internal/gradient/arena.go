package gradient

import (
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/transform"
)

// waveScratch is one worker's buffers for the sweep→update chain of one
// commodity at a time, sized for the largest member subgraph. Nothing
// in it outlives the commodity it was filled for — the wave's only
// per-commodity output is the new φ row — so a worker reuses the same
// few cache lines for every commodity it runs.
type waveScratch struct {
	rho    []float64
	linkD  []float64
	tagged []bool

	// ntagged totals the nodes this worker tagged in the current wave;
	// an integer sum, so the reduction over workers does not depend on
	// which worker ran what.
	ntagged int
}

// arena owns one engine's wave workspaces and the worker pool that runs
// the §5 waves. The paper's protocol phases are independent across
// commodities — each commodity's marginal-cost wave reads only the
// shared (read-only) usage and node prices and writes only its own φ
// row — so the pool parallelizes them without changing a single bit of
// the trajectory.
type arena struct {
	x *transform.Extended
	// price is ε·D'_n at the global operating point per extended node,
	// zero at every uncapacitated one: the engine writes it when it
	// evaluates a routing (evaluate), the stationarity check refills it.
	price   []float64
	scratch []waveScratch // one per worker
	cursor  atomic.Int64  // next commodity for the pool to claim

	// messages and rounds are what one marginal-cost wave costs the
	// distributed protocol: one ρ broadcast per member edge, and as many
	// sequential rounds as the deepest member DAG. Topology constants.
	messages, rounds int

	// The heavy-ball state (Config.Momentum), nil without momentum. It
	// covers branch-node out-edges only, the one place a row can move:
	// commodity j's slots are [branchOff[j], branchOff[j+1]), the member
	// out-edges of its Branch nodes in order. prev holds φ_{k−1} there;
	// the wave writes the φ_k it reads into cur, and the engine swaps
	// the two when it accepts the step.
	branchOff []int32
	prev, cur []float64
}

func newArena(x *transform.Extended, workers int, momentum bool) *arena {
	a := &arena{x: x, price: make([]float64, x.G.NumNodes())}
	if momentum {
		a.branchOff = make([]int32, len(x.Sub)+1)
	}
	maxN, maxE := 0, 0
	for j := range x.Sub {
		sg := &x.Sub[j]
		maxN, maxE = max(maxN, sg.NumNodes()), max(maxE, sg.NumEdges())
		a.messages += sg.NumEdges()
		a.rounds = max(a.rounds, sg.Depth())
		if momentum {
			n := a.branchOff[j]
			for _, ln := range sg.Branch() {
				n += int32(len(sg.Out(ln)))
			}
			a.branchOff[j+1] = n
		}
	}
	if momentum {
		a.prev = make([]float64, a.branchOff[len(x.Sub)])
		a.cur = make([]float64, len(a.prev))
	}
	a.scratch = make([]waveScratch, max(1, min(workers, len(x.Sub))))
	for i := range a.scratch {
		a.scratch[i] = waveScratch{
			rho:    make([]float64, maxN),
			linkD:  make([]float64, maxE),
			tagged: make([]bool, maxN),
		}
	}
	return a
}

// runWave executes, for every commodity against the evaluated usage u,
// the marginal-cost sweep with the loop-freedom tags (when blocking is
// true) and the routing update Γ, plus the heavy-ball term mu·(φ_k −
// φ_{k−1}) when the arena keeps momentum state (mu 0: Γ alone, φ_k
// still recorded), writing each commodity's new φ row into next (after
// seeding it with the current row, so next is a full routing even
// though the engine double-buffers instead of cloning).
// With more than one worker commodities are processed concurrently by a
// bounded pool; no floating-point value crosses between commodities, so
// the result is bitwise-identical to the sequential execution. It
// returns the number of tagged nodes. a.price must hold u's node
// prices.
func (a *arena) runWave(u *flow.Usage, eta, mu float64, blocking bool, next *flow.Routing) (ntagged int) {
	if len(a.scratch) > 1 {
		a.cursor.Store(0)
		var wg sync.WaitGroup
		wg.Add(len(a.scratch))
		for i := range a.scratch {
			w := &a.scratch[i]
			go func() {
				defer wg.Done()
				a.work(w, &a.cursor, u, eta, mu, blocking, next)
			}()
		}
		wg.Wait()
	} else {
		a.work(&a.scratch[0], nil, u, eta, mu, blocking, next)
	}
	for i := range a.scratch {
		ntagged += a.scratch[i].ntagged
	}
	return ntagged
}

// work runs the wave chain of the commodities one worker gets: those it
// claims from cursor, or all of them in order when cursor is nil (the
// single-worker path, which stays free of atomics and allocation).
func (a *arena) work(w *waveScratch, cursor *atomic.Int64, u *flow.Usage, eta, mu float64, blocking bool, next *flow.Routing) {
	w.ntagged = 0
	var tagged []bool
	if blocking {
		tagged = w.tagged
	}
	for j := 0; ; j++ {
		if cursor != nil {
			j = int(cursor.Add(1)) - 1
		}
		if j >= len(a.x.Sub) {
			return
		}
		w.ntagged += sweep(u, j, a.price, w.rho, w.linkD, tagged, eta)
		row := next.Phi[j]
		copy(row, u.R.Phi[j])
		var prev, cur []float64
		if a.cur != nil {
			lo, hi := a.branchOff[j], a.branchOff[j+1]
			prev, cur = a.prev[lo:hi], a.cur[lo:hi]
		}
		gamma(u, j, w.linkD, tagged, eta, mu, prev, cur, row)
	}
}

// accept makes the φ_k the last wave recorded the φ_{k−1} of the next.
func (a *arena) accept() { a.prev, a.cur = a.cur, a.prev }
