// Command experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §5 for the index). Without flags it
// runs everything at paper scale; -run selects one experiment, -quick
// shrinks budgets for a fast smoke pass.
//
//	go run ./cmd/experiments              # everything, paper scale
//	go run ./cmd/experiments -run F4      # just Figure 4
//	go run ./cmd/experiments -quick       # reduced budgets
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
)

func main() {
	var (
		run   = flag.String("run", "", "experiment to run (default all): "+strings.Join(experiments.Names(), ","))
		seed  = flag.Int64("seed", 2, "instance seed")
		quick = flag.Bool("quick", false, "reduced iteration budgets")
	)
	flag.Parse()
	if err := realMain(*run, *seed, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func realMain(run string, seed int64, quick bool) error {
	scale := experiments.DefaultScale()
	if quick {
		scale = experiments.Scale{GradIters: 3000, BPIters: 30000}
	}
	if run != "" && !experiments.ValidName(run) {
		return fmt.Errorf("unknown experiment %q (have %s)", run, strings.Join(experiments.Names(), ","))
	}
	want := func(name string) bool { return run == "" || run == name }

	if want("F4") {
		if err := printF4(seed, scale); err != nil {
			return err
		}
	}
	if want("T1") {
		if err := printT1(scale); err != nil {
			return err
		}
	}
	if want("T2") {
		if err := printT2(seed, scale); err != nil {
			return err
		}
	}
	if want("T3") {
		if err := printT3(seed, scale); err != nil {
			return err
		}
	}
	if want("T4") {
		if err := printT4(seed, scale); err != nil {
			return err
		}
	}
	if want("E5") {
		if err := printE5(seed, scale); err != nil {
			return err
		}
	}
	if want("E6") {
		if err := printE6(seed, scale); err != nil {
			return err
		}
	}
	if want("E7") {
		if err := printE7(seed, scale); err != nil {
			return err
		}
	}
	if want("E8") {
		if err := printE8(seed, scale); err != nil {
			return err
		}
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func hitStr(hit int) string {
	if hit < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", hit)
}

func printF4(seed int64, scale experiments.Scale) error {
	header("F4: Figure 4 — convergence, gradient vs back-pressure vs LP optimum")
	res, err := experiments.RunF4(seed, scale)
	if err != nil {
		return err
	}
	fmt.Printf("seed %d, 40 nodes, 3 commodities, eps=0.2, eta=0.04\n", seed)
	fmt.Printf("optimal total utility (LP): %.3f\n", res.Optimal)
	fmt.Printf("iterations to 95%% of optimal: gradient %s, back-pressure %s\n",
		hitStr(res.GradHit95), hitStr(res.BPHit95))
	w := tw()
	fmt.Fprintln(w, "iter\tgradient\tback-pressure\toptimal")
	bp := make(map[int]float64, len(res.BackPres))
	for _, p := range res.BackPres {
		bp[p.Iteration] = p.Utility
	}
	for _, p := range res.Gradient {
		line := fmt.Sprintf("%d\t%.3f\t", p.Iteration, p.Utility)
		if v, ok := bp[p.Iteration]; ok {
			line += fmt.Sprintf("%.3f", v)
		} else {
			line += "-"
		}
		fmt.Fprintf(w, "%s\t%.3f\n", line, res.Optimal)
	}
	// Back-pressure extends far beyond the gradient budget.
	lastGrad := res.Gradient[len(res.Gradient)-1].Iteration
	for _, p := range res.BackPres {
		if p.Iteration > lastGrad {
			fmt.Fprintf(w, "%d\t-\t%.3f\t%.3f\n", p.Iteration, p.Utility, res.Optimal)
		}
	}
	return w.Flush()
}

func printT1(scale experiments.Scale) error {
	header("T1: iterations to 95% of optimal across seeds")
	rows, err := experiments.RunT1([]int64{1, 2, 3, 4, 5}, scale)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "seed\toptimal\tgrad@90%\tbp@90%\tratio\tgrad@95%\tbp@95%")
	for _, r := range rows {
		ratio := "-"
		if r.Ratio == r.Ratio { // not NaN
			ratio = fmt.Sprintf("%.0fx", r.Ratio)
		}
		fmt.Fprintf(w, "%d\t%.2f\t%s\t%s\t%s\t%s\t%s\n",
			r.Seed, r.Optimal, hitStr(r.GradHit90), hitStr(r.BPHit90), ratio,
			hitStr(r.GradHit95), hitStr(r.BPHit95))
	}
	return w.Flush()
}

func printT2(seed int64, scale experiments.Scale) error {
	header("T2: step-scale η sweep (speed vs stability, §5)")
	rows, err := experiments.RunT2(seed,
		[]float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28}, scale)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "eta\thit95\tfinal/opt\tfeasible\tdiverged")
	for _, r := range rows {
		fmt.Fprintf(w, "%.3f\t%s\t%.3f\t%v\t%v\n",
			r.Eta, hitStr(r.Hit95), r.FinalPct, r.Feasible, r.Diverged)
	}
	return w.Flush()
}

func printT3(seed int64, scale experiments.Scale) error {
	header("T3: per-iteration protocol cost vs graph depth (§6 discussion)")
	rows, err := experiments.RunT3(seed, []int{3, 6, 9, 12, 18, 24}, scale)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "layers\tdepth L\tgrad rounds/iter\tbp rounds/iter\tgrad iters@90%\tbp iters@90%\tgrad TOTAL rounds\tbp TOTAL rounds")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%s\t%s\n",
			r.Layers, r.Depth, r.GradRoundsIter, r.BPRoundsIter,
			hitStr(r.GradIters90), hitStr(r.BPIters90),
			hitStr(r.GradTotalRounds), hitStr(r.BPTotalRounds))
	}
	return w.Flush()
}

func printT4(seed int64, scale experiments.Scale) error {
	header("T4: penalty coefficient ε sweep (optimality vs headroom, §3)")
	rows, err := experiments.RunT4(seed, []float64{0.5, 0.2, 0.1, 0.05, 0.02}, scale)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "eps\tutility/opt\tmin headroom")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%.3f\t%.3f\n", r.Epsilon, r.FinalPct, r.MinSlack)
	}
	return w.Flush()
}

func printE5(seed int64, scale experiments.Scale) error {
	header("E5: concave (log) utilities — max-utility vs max-throughput")
	res, err := experiments.RunE5(seed, scale)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "operating point\tutility\tadmitted rates")
	fmt.Fprintf(w, "max-utility (PWL-LP)\t%.3f\t%s\n", res.RefUtility, rates(res.RefAdmitted))
	fmt.Fprintf(w, "gradient algorithm\t%.3f\t%s\n", res.GradUtility, rates(res.GradAdmitted))
	fmt.Fprintf(w, "max-throughput point\t%.3f\t%s\n", res.ThroughputUtility, rates(res.ThroughputAdmitted))
	return w.Flush()
}

func rates(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printE6(seed int64, scale experiments.Scale) error {
	header("E6: shrinkage-intensity ablation (β' = β^γ)")
	rows, err := experiments.RunE6(seed, []float64{0, 0.5, 1, 1.5, 2}, scale)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "gamma\toptimal\tCPU-bound\tlink-bound\tgradient\tgrad/opt")
	for _, r := range rows {
		fmt.Fprintf(w, "%.1f\t%.2f\t%d\t%d\t%.2f\t%.3f\n",
			r.Gamma, r.Optimal, r.CPUBound, r.NetBound, r.GradUtility, r.GradOptRatio)
	}
	return w.Flush()
}

func printE7(seed int64, scale experiments.Scale) error {
	header("E7: dynamic offered-rate tracking — warm vs cold start")
	iterBudget := 500
	rows, err := experiments.RunE7(seed, 8, iterBudget, scale)
	if err != nil {
		return err
	}
	fmt.Printf("per-epoch iteration budget: %d\n", iterBudget)
	w := tw()
	fmt.Fprintln(w, "epoch\tlambda(S1)\toptimal\twarm\tcold\twarm/opt\tcold/opt")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.0f\t%.2f\t%.2f\t%.2f\t%.3f\t%.3f\n",
			r.Epoch, r.Lambda, r.Optimal, r.WarmUtil, r.ColdUtil,
			r.WarmUtil/r.Optimal, r.ColdUtil/r.Optimal)
	}
	return w.Flush()
}

func printE8(seed int64, scale experiments.Scale) error {
	header("E8: failure recovery — warm restart vs cold start across ε (§3 headroom)")
	rows, err := experiments.RunE8(seed, []float64{0.5, 0.2, 0.05}, scale)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "eps\tfailed node\tpre-failure U\tpost optimum\tfeasible-again\trecover@85%\tcold@85%")
	for _, r := range rows {
		fmt.Fprintf(w, "%.2f\t%s\t%.2f\t%.2f\t%s\t%s\t%s\n",
			r.Epsilon, r.FailedNode, r.PreUtility, r.PostOptimal,
			hitStr(r.FeasibleIters), hitStr(r.RecoverIters), hitStr(r.ColdIters))
	}
	return w.Flush()
}
