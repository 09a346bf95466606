// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) plus the quantitative claims promoted to
// experiments in DESIGN.md §5: F4 (the convergence figure), T1
// (iterations to 95%), T2 (η sweep), T3 (message rounds vs depth), T4
// (ε sweep), E5 (concave utilities), E6 (shrinkage ablation), and E7
// (dynamic tracking). cmd/experiments prints them.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/backpressure"
	"repro/internal/gradient"
	"repro/internal/graph"
	"repro/internal/randnet"
	"repro/internal/refopt"
	"repro/internal/stream"
	"repro/internal/transform"
	"repro/internal/utility"
	"repro/internal/workload"
)

// Scale shrinks iteration budgets for tests and quick runs; 1 is the
// full paper-scale run.
type Scale struct {
	// GradIters and BPIters bound the two algorithms' iteration counts.
	GradIters int
	BPIters   int
	// Nodes and Commodities override the instance size (0 = §6's 40/3).
	Nodes       int
	Commodities int
}

// DefaultScale is the full §6 configuration.
func DefaultScale() Scale {
	return Scale{GradIters: 20000, BPIters: 150000}
}

func (s *Scale) setDefaults() {
	if s.GradIters <= 0 {
		s.GradIters = 20000
	}
	if s.BPIters <= 0 {
		s.BPIters = 150000
	}
	if s.Nodes <= 0 {
		s.Nodes = 40
	}
	if s.Commodities <= 0 {
		s.Commodities = 3
	}
}

// instance generates the §6 instance for a seed.
func (s Scale) instance(seed int64) (*transform.Extended, error) {
	p, err := randnet.Generate(randnet.Config{
		Seed: seed, Nodes: s.Nodes, Commodities: s.Commodities,
	})
	if err != nil {
		return nil, err
	}
	return transform.Build(p, transform.Options{Epsilon: 0.2})
}

// Point is one sample of a convergence curve.
type Point struct {
	Iteration int
	Utility   float64
}

// logSampled keeps points at log-spaced iterations (1,2,..,10,20,..).
func logSampled(iter int) bool {
	if iter <= 0 {
		return iter == 0
	}
	mag := 1
	for iter >= mag*10 {
		mag *= 10
	}
	return iter%mag == 0
}

// F4Result reproduces Figure 4: gradient and back-pressure convergence
// toward the LP optimum on the 40-node, 3-commodity random instance.
type F4Result struct {
	Seed     int64
	Optimal  float64 // LP optimum (horizontal line)
	Gradient []Point // log-sampled utility curve
	BackPres []Point // log-sampled cumulative-utility curve
	// First iteration reaching 95% (resp. 90%) of Optimal; -1 if never.
	GradHit95 int
	BPHit95   int
	GradHit90 int
	BPHit90   int
}

// RunF4 executes the Figure 4 experiment (ε = 0.2, η = 0.04 as §6).
func RunF4(seed int64, scale Scale) (*F4Result, error) {
	scale.setDefaults()
	x, err := scale.instance(seed)
	if err != nil {
		return nil, err
	}
	ref, err := refopt.Solve(x, refopt.Options{})
	if err != nil {
		return nil, err
	}
	res := &F4Result{
		Seed: seed, Optimal: ref.Utility,
		GradHit95: -1, BPHit95: -1, GradHit90: -1, BPHit90: -1,
	}

	eng := gradient.New(x, gradient.Config{Eta: 0.04})
	for i := 0; i < scale.GradIters; i++ {
		info := eng.Step()
		if logSampled(i) || i == scale.GradIters-1 {
			res.Gradient = append(res.Gradient, Point{Iteration: i, Utility: info.Utility})
		}
		if res.GradHit95 < 0 && info.Utility >= 0.95*ref.Utility {
			res.GradHit95 = i
		}
		if res.GradHit90 < 0 && info.Utility >= 0.90*ref.Utility {
			res.GradHit90 = i
		}
	}

	bp := backpressure.New(x, backpressure.Config{})
	for i := 0; i < scale.BPIters; i++ {
		info := bp.Step()
		if logSampled(i) || i == scale.BPIters-1 {
			res.BackPres = append(res.BackPres, Point{Iteration: i, Utility: info.Cumulative})
		}
		if res.BPHit95 < 0 && info.Cumulative >= 0.95*ref.Utility {
			res.BPHit95 = i
		}
		if res.BPHit90 < 0 && info.Cumulative >= 0.90*ref.Utility {
			res.BPHit90 = i
		}
	}
	return res, nil
}

// T1Row is one seed's iterations-to-target comparison. The 95% target
// matches §6's criterion; the 90% target is reported as well because
// the ε = 0.2 barrier plateau sits between 90% and 97% of the LP
// optimum depending on the instance (see T4), so some seeds never
// clear 95% at ε = 0.2 no matter how long they run.
type T1Row struct {
	Seed      int64
	Optimal   float64
	GradHit95 int
	BPHit95   int
	GradHit90 int
	BPHit90   int
	Ratio     float64 // BP/gradient at the 90% target; NaN when missed
}

// RunT1 repeats the §6 convergence-speed claim over several seeds.
func RunT1(seeds []int64, scale Scale) ([]T1Row, error) {
	scale.setDefaults()
	rows := make([]T1Row, 0, len(seeds))
	for _, seed := range seeds {
		f4, err := RunF4(seed, scale)
		if err != nil {
			return nil, err
		}
		row := T1Row{
			Seed: seed, Optimal: f4.Optimal,
			GradHit95: f4.GradHit95, BPHit95: f4.BPHit95,
			GradHit90: f4.GradHit90, BPHit90: f4.BPHit90,
			Ratio: math.NaN(),
		}
		if row.GradHit90 > 0 && row.BPHit90 > 0 {
			row.Ratio = float64(row.BPHit90) / float64(row.GradHit90)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// T2Row is one η setting's convergence behavior.
type T2Row struct {
	Eta      float64
	Hit95    int     // -1 = never within budget
	FinalPct float64 // final utility / optimal
	Feasible bool    // final point satisfies every capacity constraint
	Diverged bool
}

// RunT2 sweeps the scale factor η (§5–6: small η safe but slow, large η
// fast but unstable).
func RunT2(seed int64, etas []float64, scale Scale) ([]T2Row, error) {
	scale.setDefaults()
	x, err := scale.instance(seed)
	if err != nil {
		return nil, err
	}
	ref, err := refopt.Solve(x, refopt.Options{})
	if err != nil {
		return nil, err
	}
	rows := make([]T2Row, 0, len(etas))
	for _, eta := range etas {
		eng := gradient.New(x, gradient.Config{Eta: eta})
		row := T2Row{Eta: eta, Hit95: -1}
		final := 0.0
		var det gradient.DivergenceDetector
		for i := 0; i < scale.GradIters; i++ {
			info := eng.Step()
			if det.Observe(info) != nil {
				row.Diverged = true
				break
			}
			final = info.Utility
			row.Feasible = info.Feasible
			// Only a feasible point counts as having converged: a huge
			// η can show utility above the optimum by overloading nodes.
			if row.Hit95 < 0 && info.Feasible && info.Utility >= 0.95*ref.Utility {
				row.Hit95 = i
			}
		}
		row.FinalPct = final / ref.Utility
		rows = append(rows, row)
	}
	return rows, nil
}

// T3Row measures protocol cost versus graph depth: per-iteration
// message rounds, and — answering §7's open question of which
// algorithm converges faster in wall-clock terms — the TOTAL number of
// sequential message rounds until 90% of the optimum, which multiplies
// iterations by rounds-per-iteration.
type T3Row struct {
	Layers         int
	Depth          int // longest member path in the extended graph
	GradRoundsIter int // 2·Depth: the forecast wave down, the marginal wave up
	BPRoundsIter   int // always 1: one buffer exchange round
	GradMsgsIter   int // 2·|member edges|: one message per member edge per wave
	BPMsgsIter     int
	// Iterations to a feasible point at 90% of the LP optimum.
	GradIters90 int
	BPIters90   int
	// Total sequential rounds = iterations × rounds/iteration; -1 when
	// the target was missed within budget.
	GradTotalRounds int
	BPTotalRounds   int
}

// RunT3 sweeps graph depth; the §6 discussion says the gradient
// algorithm pays O(L) sequential exchanges per iteration while
// back-pressure pays O(1).
func RunT3(seed int64, layerSweep []int, scale Scale) ([]T3Row, error) {
	scale.setDefaults()
	rows := make([]T3Row, 0, len(layerSweep))
	for _, layers := range layerSweep {
		nodes := scale.Nodes
		if nodes < 2*layers {
			nodes = 2 * layers
		}
		p, err := randnet.Generate(randnet.Config{
			Seed: seed, Nodes: nodes, Layers: layers, Commodities: 2,
		})
		if err != nil {
			return nil, err
		}
		x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
		if err != nil {
			return nil, err
		}
		depth := 0
		for j := range x.Commodities {
			if l := x.Sub[j].Depth(); l > depth {
				depth = l
			}
		}
		// Rounds and messages per iteration are topology constants the
		// engine accounts as it steps (gradient.Stats).
		probe := gradient.New(x, gradient.Config{Eta: 0.04})
		probe.Step()
		st := probe.Stats()
		bp := backpressure.New(x, backpressure.Config{})
		bpInfo := bp.Step()
		row := T3Row{
			Layers:          layers,
			Depth:           depth,
			GradRoundsIter:  st.Rounds,
			BPRoundsIter:    1,
			GradMsgsIter:    st.Messages,
			BPMsgsIter:      bpInfo.Messages,
			GradIters90:     -1,
			BPIters90:       -1,
			GradTotalRounds: -1,
			BPTotalRounds:   -1,
		}

		// Wall-clock comparison: total sequential rounds to 90%.
		ref, err := refopt.Solve(x, refopt.Options{})
		if err != nil {
			return nil, err
		}
		eng := gradient.New(x, gradient.Config{Eta: 0.04})
		if _, hit, err := eng.RunToTarget(ref.Utility, 0.90, scale.GradIters); err == nil && hit >= 0 {
			row.GradIters90 = hit
			row.GradTotalRounds = hit * row.GradRoundsIter
		}
		for i := 1; i < scale.BPIters; i++ {
			if bp.Step().Cumulative >= 0.90*ref.Utility {
				row.BPIters90 = i
				row.BPTotalRounds = i
				break
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// T4Row is one ε setting's optimality/headroom trade-off.
type T4Row struct {
	Epsilon  float64
	FinalPct float64 // utility / LP optimum
	MinSlack float64 // min_i (C_i−f_i)/C_i: barrier-kept headroom
}

// RunT4 sweeps the penalty coefficient ε (§3: ε trades closeness to the
// true optimum against capacity headroom kept free for bursts and
// failures).
func RunT4(seed int64, epsilons []float64, scale Scale) ([]T4Row, error) {
	scale.setDefaults()
	p, err := randnet.Generate(randnet.Config{
		Seed: seed, Nodes: scale.Nodes, Commodities: scale.Commodities,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]T4Row, 0, len(epsilons))
	for _, eps := range epsilons {
		x, err := transform.Build(p, transform.Options{Epsilon: eps})
		if err != nil {
			return nil, err
		}
		ref, err := refopt.Solve(x, refopt.Options{})
		if err != nil {
			return nil, err
		}
		// A smaller ε flattens the cost landscape, so the gradient
		// iteration needs proportionally more steps to settle; scale
		// the budget by 0.2/ε relative to the §6 baseline.
		iters := int(float64(scale.GradIters) * math.Max(1, 0.2/eps))
		eng := gradient.New(x, gradient.Config{Eta: 0.04})
		if _, err := eng.Run(iters, nil); err != nil {
			return nil, err
		}
		u := eng.Solution()
		_, slack := u.Feasible()
		rows = append(rows, T4Row{
			Epsilon:  eps,
			FinalPct: u.Utility() / ref.Utility,
			MinSlack: slack,
		})
	}
	return rows, nil
}

// E5Result compares max-utility against max-throughput operation under
// concave (log) utilities on an overloaded instance.
type E5Result struct {
	// Reference (PWL-LP) max-utility operating point.
	RefUtility  float64
	RefAdmitted []float64
	// Gradient algorithm's operating point.
	GradUtility  float64
	GradAdmitted []float64
	// The max-THROUGHPUT point's utility (same network, linear
	// objective), showing the fairness gap.
	ThroughputUtility  float64
	ThroughputAdmitted []float64
}

// e5Problem builds a deliberately *contended* instance: every
// commodity must cross a shared two-stage core whose total capacity is
// far below the offered load, so max-throughput and max-utility
// genuinely disagree. (A plain randnet instance usually bottlenecks
// each commodity on private near-source resources, where the two
// objectives coincide.)
func e5Problem(scale Scale, u func(j int) utility.Function) (*stream.Problem, error) {
	net := stream.NewNetwork()
	p := stream.NewProblem(net)
	// Shared core: two stages of three nodes each.
	var stage1, stage2 []graph.NodeID
	for i := 0; i < 3; i++ {
		a, err := net.AddServer(fmt.Sprintf("core-a%d", i), 8)
		if err != nil {
			return nil, err
		}
		bnode, err := net.AddServer(fmt.Sprintf("core-b%d", i), 8)
		if err != nil {
			return nil, err
		}
		stage1 = append(stage1, a)
		stage2 = append(stage2, bnode)
	}
	coreEdges := make([]graph.EdgeID, 0, 9)
	for _, a := range stage1 {
		for _, bnode := range stage2 {
			e, err := net.AddLink(a, bnode, 50)
			if err != nil {
				return nil, err
			}
			coreEdges = append(coreEdges, e)
		}
	}
	offered := []float64{80, 30, 12}
	for j, lambda := range offered {
		name := fmt.Sprintf("S%d", j+1)
		src, err := net.AddServer("src-"+name, 1000)
		if err != nil {
			return nil, err
		}
		sink, err := net.AddSink("sink-" + name)
		if err != nil {
			return nil, err
		}
		c, err := p.AddCommodity(name, src, sink, lambda, u(j))
		if err != nil {
			return nil, err
		}
		set := func(e graph.EdgeID, params stream.EdgeParams) error {
			return p.SetEdge(c, e, params)
		}
		for _, a := range stage1 {
			e, err := net.AddLink(src, a, 200)
			if err != nil {
				return nil, err
			}
			if err := set(e, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
				return nil, err
			}
		}
		for _, bnode := range stage2 {
			e, err := net.AddLink(bnode, sink, 200)
			if err != nil {
				return nil, err
			}
			if err := set(e, stream.EdgeParams{Beta: 0.5, Cost: 1}); err != nil {
				return nil, err
			}
		}
		for _, e := range coreEdges {
			if err := set(e, stream.EdgeParams{Beta: 1, Cost: 1}); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// RunE5 runs the concave-utility admission-control experiment.
func RunE5(seed int64, scale Scale) (*E5Result, error) {
	scale.setDefaults()
	_ = seed // the contended topology is fixed by design
	mkProblem := func(u func(j int) utility.Function) (*stream.Problem, error) {
		return e5Problem(scale, u)
	}
	logU := func(int) utility.Function { return utility.Log{Weight: 10, Scale: 1} }

	p, err := mkProblem(logU)
	if err != nil {
		return nil, err
	}
	x, err := transform.Build(p, transform.Options{Epsilon: 0.05})
	if err != nil {
		return nil, err
	}
	ref, err := refopt.Solve(x, refopt.Options{Segments: 256})
	if err != nil {
		return nil, err
	}
	// Weight-10 log utilities have U'(0) = 10, so marginals — and with
	// them the effective step η·a — are an order of magnitude larger
	// than in the linear experiments; η scales down accordingly
	// (§5's stability condition).
	eng := gradient.New(x, gradient.Config{Eta: 0.01})
	if _, err := eng.Run(scale.GradIters, nil); err != nil {
		return nil, err
	}
	sol := eng.Solution()

	// Max-throughput point on the SAME network (linear objective), then
	// evaluate the log utility of its admitted rates.
	pt, err := mkProblem(func(int) utility.Function { return utility.Linear{Slope: 1} })
	if err != nil {
		return nil, err
	}
	xt, err := transform.Build(pt, transform.Options{Epsilon: 0.05})
	if err != nil {
		return nil, err
	}
	tput, err := refopt.Solve(xt, refopt.Options{})
	if err != nil {
		return nil, err
	}
	tputUtil := 0.0
	for j, a := range tput.Admitted {
		tputUtil += x.Commodities[j].Utility.Value(a)
	}

	res := &E5Result{
		RefUtility:         ref.Utility,
		RefAdmitted:        ref.Admitted,
		GradUtility:        sol.Utility(),
		ThroughputUtility:  tputUtil,
		ThroughputAdmitted: tput.Admitted,
	}
	for j := range x.Commodities {
		res.GradAdmitted = append(res.GradAdmitted, sol.AdmittedRate(j))
	}
	return res, nil
}

// E6Row is one shrinkage-intensity setting.
type E6Row struct {
	Gamma float64 // β' = β^γ: 0 = classical conservation, 1 = §6 setting
	// LP-optimal utility and which resource binds at the optimum.
	Optimal      float64
	CPUBound     int // capacitated servers with ≥99% utilization
	NetBound     int // links with ≥99% utilization
	GradUtility  float64
	GradOptRatio float64
}

// RunE6 sweeps shrinkage intensity by exponentiating the node
// potentials: γ = 0 removes shrinkage entirely (classical
// multicommodity flow), γ = 1 is the generated instance, larger γ
// amplifies expansion/shrinkage. Property 1 is preserved for every γ.
func RunE6(seed int64, gammas []float64, scale Scale) ([]E6Row, error) {
	scale.setDefaults()
	rows := make([]E6Row, 0, len(gammas))
	for _, gamma := range gammas {
		p, err := randnet.Generate(randnet.Config{
			Seed: seed, Nodes: scale.Nodes, Commodities: scale.Commodities,
		})
		if err != nil {
			return nil, err
		}
		for _, c := range p.Commodities {
			for e, params := range c.Edges {
				params.Beta = math.Pow(params.Beta, gamma)
				c.Edges[e] = params
			}
		}
		x, err := transform.Build(p, transform.Options{Epsilon: 0.2})
		if err != nil {
			return nil, err
		}
		ref, err := refopt.Solve(x, refopt.Options{})
		if err != nil {
			return nil, err
		}
		row := E6Row{Gamma: gamma, Optimal: ref.Utility}
		// Count binding resources at the LP optimum.
		usage := make([]float64, x.G.NumNodes())
		for j := range x.Commodities {
			sg := &x.Sub[j]
			for le, e := range sg.Edges {
				usage[sg.Nodes[sg.Tail[le]]] += ref.EdgeInput[j][e] * sg.Cost[le]
			}
		}
		for n := 0; n < x.G.NumNodes(); n++ {
			capn := x.Capacity[n]
			if math.IsInf(capn, 1) {
				continue
			}
			if usage[n] >= 0.99*capn {
				if x.Kinds[n] == transform.Bandwidth {
					row.NetBound++
				} else {
					row.CPUBound++
				}
			}
		}
		// Amplified shrinkage (β up to g-ratio^γ) steepens the cost
		// landscape — marginal costs propagate multiplied by β, and the
		// curvature grows with the square of the path gain — so the §5
		// stability condition demands η shrinking exponentially in γ,
		// and the smaller steps need proportionally more iterations.
		iters := int(float64(scale.GradIters) * math.Pow(4, gamma))
		if iters > 400000 {
			iters = 400000
		}
		eng := gradient.New(x, gradient.Config{Eta: 0.04 * math.Pow(4, -gamma)})
		if _, err := eng.Run(iters, nil); err != nil {
			return nil, err
		}
		row.GradUtility = eng.Solution().Utility()
		row.GradOptRatio = row.GradUtility / ref.Utility
		rows = append(rows, row)
	}
	return rows, nil
}

// E7Epoch is one epoch of the dynamic-tracking experiment.
type E7Epoch struct {
	Epoch    int
	Lambda   float64 // offered rate of the modulated commodity
	Optimal  float64
	WarmUtil float64 // warm-started gradient after IterBudget iterations
	ColdUtil float64 // cold-started gradient after the same budget
}

// RunE7 modulates one commodity's offered rate by a step process and
// re-optimizes each epoch under a fixed iteration budget, warm-started
// from the previous routing versus cold-started, demonstrating the
// algorithm's tracking behavior (§1 motivation).
func RunE7(seed int64, epochs, iterBudget int, scale Scale) ([]E7Epoch, error) {
	scale.setDefaults()
	// Levels below and above the network's S1 capacity so the optimum
	// itself moves between epochs.
	proc := workload.Steps{Levels: []float64{8, 40, 16, 60}, Period: 1}

	build := func(lambda float64) (*transform.Extended, error) {
		p, err := randnet.Generate(randnet.Config{
			Seed: seed, Nodes: scale.Nodes, Commodities: scale.Commodities,
		})
		if err != nil {
			return nil, err
		}
		p.Commodities[0].MaxRate = lambda
		return transform.Build(p, transform.Options{Epsilon: 0.2})
	}

	var (
		out  []E7Epoch
		warm *gradient.Engine
	)
	for epoch := 0; epoch < epochs; epoch++ {
		lambda := proc.Rate(epoch)
		x, err := build(lambda)
		if err != nil {
			return nil, err
		}
		ref, err := refopt.Solve(x, refopt.Options{})
		if err != nil {
			return nil, err
		}
		cold := gradient.New(x, gradient.Config{Eta: 0.04})
		if warm == nil {
			warm = gradient.New(x, gradient.Config{Eta: 0.04})
		} else {
			// Carry the routing across the rate change. The topology is
			// identical, so routing vectors are index-compatible.
			warm, err = gradient.NewFrom(x, warm.Routing(), gradient.Config{Eta: 0.04})
			if err != nil {
				return nil, err
			}
		}
		if _, err := warm.Run(iterBudget, nil); err != nil {
			return nil, err
		}
		if _, err := cold.Run(iterBudget, nil); err != nil {
			return nil, err
		}
		out = append(out, E7Epoch{
			Epoch:    epoch,
			Lambda:   lambda,
			Optimal:  ref.Utility,
			WarmUtil: warm.Solution().Utility(),
			ColdUtil: cold.Solution().Utility(),
		})
	}
	return out, nil
}

// Names of all experiments, for CLI help.
func Names() []string {
	return []string{"F4", "T1", "T2", "T3", "T4", "E5", "E6", "E7", "E8"}
}

// ValidName reports whether the name is a known experiment.
func ValidName(name string) bool {
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}
