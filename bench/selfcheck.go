package main

import (
	"fmt"
	"math"
	"time"
)

// selfcheckRuns is the size of each of the self-check's two sets: the
// ten runs the acceptance rule for this benchmark is stated in.
const selfcheckRuns = 10

// exact are the end-to-end metrics that are a function of the seed alone:
// two runs of one build on one seed must report the same value to the
// last digit.
var exact = []string{"wal_bytes_per_job", "cost_usd_per_kcoreh"}

// ungated are the timings the self-check reports beside the bounded
// metrics: the wall-clock values behind drain_s and recover_s, and the
// canary they are scaled by.
var ungated = []string{"proc.drain_wall_s", "proc.recover_wall_s", "bench.canary_ms"}

// runSelfcheck measures the benchmark's own repeatability: on every
// workload it makes two interleaved sets of selfcheckRuns full end-to-end
// runs of the same build (A1 B1 A2 B2 …; Ai and Bi both on seed i), and
// compares the sets the way a later change will be compared with its
// parent. A metric passes when the two medians differ, in either
// direction, by no more than the metric's bound and neither set's
// interquartile spread exceeds it; an exact metric must in addition be
// equal in every same-seed pair. The output is Markdown; the committed
// copy is NOISE.md.
func runSelfcheck(h *harness, sp *spec) (int, error) {
	fmt.Printf("# Benchmark self-check\n\n")
	fmt.Printf("The output of `bench -selfcheck`: two interleaved sets (A, B) of %d end-to-end runs of one build per workload; "+
		"runs Ai and Bi both use seed i, so a set spans %d seeds as the acceptance runs do. "+
		"`gap` is how far B's median is from A's (positive is worse); `spread` is the larger interquartile range "+
		"as a share of its median (Python's `statistics.quantiles(n=4)`); the size of either above `bound` fails. "+
		"Steady means a spread below a third of the bound. `same-seed pairs equal` counts the pairs (Ai, Bi) "+
		"in which an exact metric read the same to the last digit; any other fails.\n\n",
		selfcheckRuns, selfcheckRuns)
	start := time.Now()
	bad := 0
	for _, w := range workloads {
		vals := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfcheckRuns; i++ {
			seed := int64(i/2 + 1)
			rep := &report{}
			if err := runE2E(h, w, seed, lifeAReps, 0, rep); err != nil {
				return 2, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if len(rep.problems) > 0 {
				return 1, fmt.Errorf("%s seed %d failed a check: %s", w.name, seed, rep.problems[0])
			}
			for _, t := range rep.tallies {
				if t.failed > 0 {
					return 1, fmt.Errorf("%s seed %d: %d of %d %s failed", w.name, seed, t.failed, t.attempted, t.name)
				}
			}
			for _, m := range sp.EndToEnd {
				v, ok := rep.get(m.Name)
				if !ok {
					return 2, fmt.Errorf("%s: metric %s was not measured", w.name, m.Name)
				}
				vals[i%2][m.Name] = append(vals[i%2][m.Name], v)
			}
			for _, name := range ungated {
				v, _ := rep.get(name)
				vals[i%2][name] = append(vals[i%2][name], v)
			}
		}
		fmt.Printf("## %s (%d jobs)\n\n", w.name, w.jobs)
		fmt.Printf("| metric | unit | A median [q1, q3] | B median [q1, q3] | gap | spread | bound | same-seed pairs equal | |\n")
		fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
		for _, m := range sp.EndToEnd {
			a, b := vals[0][m.Name], vals[1][m.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			gap := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				gap = -gap
			}
			sprd := math.Max(spread(a), spread(b))
			pairs := ""
			unequal := 0
			for _, name := range exact {
				if name != m.Name {
					continue
				}
				for i := range a {
					if a[i] != b[i] {
						unequal++
					}
				}
				pairs = fmt.Sprintf("%d of %d", len(a)-unequal, len(a))
			}
			verdict := "steady"
			switch {
			case math.Abs(gap) > m.Bound || sprd > m.Bound || unequal > 0:
				verdict = "**FAIL**"
				bad++
			case sprd > m.Bound/3:
				verdict = "ok"
			}
			fmt.Printf("| `%s` | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %+.2f %% | %.2f %% | %.2f %% | %s | %s |\n",
				m.Name, m.Unit, ma, a1, a3, mb, b1, b3, 100*gap, 100*sprd, 100*m.Bound, pairs, verdict)
		}
		fmt.Printf("\nWall clock, and the canary it is scaled by:\n\n")
		fmt.Printf("| metric | A median [q1, q3] | B median [q1, q3] | gap | spread |\n|---|---|---|---|---|\n")
		for _, name := range ungated {
			a, b := vals[0][name], vals[1][name]
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			fmt.Printf("| `%s` | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %+.2f %% | %.2f %% |\n", name,
				median(a), a1, a3, median(b), b1, b3,
				100*(median(b)-median(a))/math.Abs(median(a)), 100*math.Max(spread(a), spread(b)))
		}
		fmt.Println()
	}
	fmt.Printf("Done in %s; %d metric(s) failed.\n", time.Since(start).Round(time.Second), bad)
	if bad > 0 {
		return 1, nil
	}
	return 0, nil
}
