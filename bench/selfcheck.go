package main

import (
	"fmt"
	"math"
)

// selfCheck measures the benchmark against itself the way the driver
// will: two sets, A and B, of n untraced runs per workload, interleaved
// A,B,A,B…, run i of either set on seed+i. Same code on both sides, so
// every pair of medians must agree within the metric's bound, every
// spread across seeds must fit inside it, and the two runs of one seed
// must leave the same trail.
func selfCheck(only string, n int, seed int64, seconds int) error {
	bad := 0
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			var trails [2]string
			for side := range sets {
				c, err := runChild(w.name, seed+int64(i), seconds, false, false)
				if err != nil {
					return err
				}
				if !c.outcome.Correct {
					fmt.Printf("  ! %s seed %d: output checks failed (%d of %d ops failed)\n", w.name, seed+int64(i), c.outcome.Failed, c.outcome.Attempted)
					bad++
				}
				for name, r := range c.outcome.Metrics {
					sets[side][name] = append(sets[side][name], r.Value)
				}
				trails[side] = c.stamp.ScriptSHA256 + c.stamp.Trail
			}
			if trails[0] != trails[1] {
				fmt.Printf("  ! %s seed %d: the two runs diverged (script or trail)\n", w.name, seed+int64(i))
				bad++
			}
		}
		fmt.Printf("%s: %d runs per set, seeds %d..%d\n", w.name, n, seed, seed+int64(n)-1)
		fmt.Printf("  %-24s %12s %12s %8s %8s %8s %7s\n", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound")
		for _, d := range endToEndDefs {
			a, b := sets[0][d.name], sets[1][d.name]
			diff := math.Abs(median(a)-median(b)) / math.Abs(median(a))
			verdict := ""
			// setup_s is gated on its medians only, as in the driver.
			if diff > d.bound || (d.name != "setup_s" && math.Max(spread(a), spread(b)) > d.bound) {
				verdict = "  FAIL"
				bad++
			}
			fmt.Printf("  %-24s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %6.1f%%%s\n",
				d.name, median(a), median(b), 100*diff, 100*spread(a), 100*spread(b), 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: selfcheck: %d checks failed", bad)
	}
	return nil
}
